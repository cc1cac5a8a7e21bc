#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository root
# and runs it from there. Everything the build writes (binary, Go build cache)
# stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local
# The toolchain stamps the commit into the binary, which the report prints.
# Outside a git checkout (an exported tree) there is nothing to stamp, and
# asking would fail the build.
vcs=-buildvcs=false
if git -C "$root" rev-parse HEAD >/dev/null 2>&1; then vcs=-buildvcs=true; fi
(cd "$here" && go build "$vcs" -o "$build/pdb-bench" .) >&2
cd "$root"
exec "$build/pdb-bench" "$@"
