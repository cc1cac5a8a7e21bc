package pl

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"testing"

	"repro/internal/aonet"
	"repro/internal/tuple"
)

// Fuzz and unit coverage for the spill partition-file codec. The properties:
// decoding is a partial inverse of encoding (decode→encode→decode is a fixed
// point, bit patterns included), truncated record bodies are rejected with
// io.ErrUnexpectedEOF, and corrupt kinds/lengths are rejected with
// errCodecCorrupt — never accepted, never a panic, never an over-allocation.

// decodeRecords reads records off data until a clean end of stream or an
// error; it returns the decoded records (as any of the four record types)
// and the terminating error, nil for a clean end.
func decodeRecords(data []byte) ([]any, error) {
	d := &recDecoder{br: bufio.NewReader(bytes.NewReader(data))}
	var recs []any
	for {
		kind, ok, err := d.readKind()
		if err != nil {
			return recs, err
		}
		if !ok {
			return recs, nil
		}
		switch kind {
		case recKindIndex:
			seq, err := d.readIndexRec()
			if err != nil {
				return recs, err
			}
			recs = append(recs, seq)
		case recKindPair:
			r, err := d.readPairRec()
			if err != nil {
				return recs, err
			}
			recs = append(recs, r)
		case recKindTuple:
			r, err := d.readTupleRec()
			if err != nil {
				return recs, err
			}
			recs = append(recs, r)
		case recKindGroup:
			r, err := d.readGroupRec()
			if err != nil {
				return recs, err
			}
			recs = append(recs, r)
		}
	}
}

// encodeRecords is the inverse: re-encodes decoded records.
func encodeRecords(recs []any) []byte {
	var b []byte
	for _, r := range recs {
		switch v := r.(type) {
		case int32:
			b = appendIndexRec(b, v)
		case pairRec:
			b = appendPairRec(b, v)
		case tupleRec:
			b = appendTupleRec(b, v)
		case groupRec:
			b = appendGroupRec(b, v)
		}
	}
	return b
}

// seedCorpus returns one valid encoding of every record kind, edge values
// included (negative ints, float bit patterns, empty and non-ASCII strings,
// empty tuples, multi-member groups).
func seedCorpus() [][]byte {
	var streams [][]byte
	var b []byte
	b = appendIndexRec(b, 0)
	b = appendIndexRec(b, 1<<31-1)
	streams = append(streams, b)
	streams = append(streams, appendPairRec(nil, pairRec{i: 7, j: 12}))
	streams = append(streams, appendTupleRec(nil, tupleRec{
		seq: 3,
		t: Tuple{
			Vals: tuple.Tuple{tuple.Int(-42), tuple.Float(math.Inf(-1)), tuple.String("héllo\x00")},
			P:    0.25,
			Lin:  aonet.NodeID(9),
		},
	}))
	streams = append(streams, appendTupleRec(nil, tupleRec{seq: 0, t: Tuple{P: math.NaN()}}))
	streams = append(streams, appendGroupRec(nil, groupRec{
		first: 5,
		vals:  tuple.Tuple{tuple.String("")},
		members: []aonet.Edge{
			{From: aonet.Epsilon, P: 1},
			{From: aonet.NodeID(3), P: 0.5},
		},
	}))
	return streams
}

// FuzzSpillCodec: for arbitrary input, decoding must never panic, and
// whatever decodes must re-encode to a stream that decodes to the same
// records (encode∘decode is a fixed point, compared byte-for-byte after one
// round so NaN payloads and non-canonical varints are handled). Cutting the
// final byte off a valid stream must be rejected as truncation, not read as
// a shorter valid stream.
func FuzzSpillCodec(f *testing.F) {
	for _, s := range seedCorpus() {
		f.Add(s)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff})
	f.Add([]byte{recKindTuple})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, _ := decodeRecords(data)
		enc := encodeRecords(recs)
		recs2, err := decodeRecords(enc)
		if err != nil {
			t.Fatalf("re-encoded stream failed to decode: %v", err)
		}
		if len(recs2) != len(recs) {
			t.Fatalf("re-encoded stream decoded %d records, want %d", len(recs2), len(recs))
		}
		if enc2 := encodeRecords(recs2); !bytes.Equal(enc, enc2) {
			t.Fatalf("encode∘decode is not a fixed point:\n %x\n %x", enc, enc2)
		}
		if len(enc) > 0 {
			// Every record is at least two bytes, so cutting one byte always
			// truncates the final record's body or its kind's payload.
			if _, err := decodeRecords(enc[:len(enc)-1]); err == nil {
				t.Fatalf("truncated stream (%d of %d bytes) decoded cleanly", len(enc)-1, len(enc))
			}
		}
	})
}

// TestCodecRoundTrip pins the fixed-point property on the seed corpus
// without the fuzzer, so plain `go test` covers it.
func TestCodecRoundTrip(t *testing.T) {
	for i, s := range seedCorpus() {
		recs, err := decodeRecords(s)
		if err != nil {
			t.Fatalf("corpus %d: decode: %v", i, err)
		}
		if got := encodeRecords(recs); !bytes.Equal(got, s) {
			t.Fatalf("corpus %d: round trip changed bytes:\n %x\n %x", i, s, got)
		}
	}
}

// TestCodecTruncation: every strict prefix of a single-record stream is
// rejected with io.ErrUnexpectedEOF (except the empty prefix, a clean end).
func TestCodecTruncation(t *testing.T) {
	for i, s := range seedCorpus() {
		for cut := 1; cut < len(s); cut++ {
			recs, err := decodeRecords(s[:cut])
			if err == nil && len(recs) > 0 && len(encodeRecords(recs)) == cut {
				continue // the cut landed on a record boundary of a multi-record stream
			}
			if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, errCodecCorrupt) {
				t.Fatalf("corpus %d cut %d: err = %v, want truncation or corruption", i, cut, err)
			}
		}
	}
}

// TestCodecRejectsCorruption: unknown kinds and oversized length prefixes
// are typed errors, not allocations or panics.
func TestCodecRejectsCorruption(t *testing.T) {
	cases := [][]byte{
		{0x00}, // unknown record kind
		{0x7f}, // unknown record kind
		{recKindTuple, 0x01, 0, 0, 0, 0, 0, 0, 0, 0, 0x00, 0xff},               // unknown value kind
		append([]byte{recKindGroup, 0x01, 0x00}, 0xff, 0xff, 0xff, 0xff, 0x7f), // absurd member count
	}
	for i, data := range cases {
		if _, err := decodeRecords(data); !errors.Is(err, errCodecCorrupt) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("case %d: err = %v, want errCodecCorrupt or truncation", i, err)
		}
	}
}
