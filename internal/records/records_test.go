package records

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// decodePairs inverts EncodePairs. Nothing in production decodes this
// form; the tests use it to show the encoding is self-delimiting and
// injective, which the oracle's byte-equality and the digests rely on.
func decodePairs(data []byte) ([]Pair, error) {
	var out []Pair
	for off := 0; off < len(data); {
		kl, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return nil, errors.New("bad key length")
		}
		off += n
		vl, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return nil, errors.New("bad value length")
		}
		off += n
		if uint64(len(data)-off) < kl+vl {
			return nil, errors.New("truncated pair")
		}
		k := data[off : off+int(kl)]
		off += int(kl)
		v := data[off : off+int(vl)]
		off += int(vl)
		out = append(out, Pair{Key: k, Value: v})
	}
	return out, nil
}

func TestPairsRoundTrip(t *testing.T) {
	in := []Pair{
		{Key: []byte("k1"), Value: []byte("v1")},
		{Key: nil, Value: []byte("only-value")},
		{Key: []byte("k3"), Value: nil},
	}
	enc := EncodePairs(in)
	// The digest form is pinned byte for byte: stored digests and the
	// oracle's comparisons depend on it never changing.
	if want := "\x02\x02k1v1\x00\x0aonly-value\x02\x00k3"; string(enc) != want {
		t.Errorf("EncodePairs = %q, want %q", enc, want)
	}
	if int64(len(enc)) != PairsSize(in) {
		t.Errorf("encoded length %d != PairsSize %d", len(enc), PairsSize(in))
	}
	out, err := decodePairs(enc)
	if err != nil {
		t.Fatalf("decodePairs: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d pairs, want %d", len(out), len(in))
	}
	for i := range in {
		if !bytes.Equal(out[i].Key, in[i].Key) || !bytes.Equal(out[i].Value, in[i].Value) {
			t.Errorf("pair %d mismatch", i)
		}
	}
}

// TestDecodePairsErrors pins that the framing is self-delimiting: a
// truncated encoding is not the encoding of any pair sequence.
func TestDecodePairsErrors(t *testing.T) {
	enc := EncodePairs([]Pair{{Key: []byte("abc"), Value: []byte("defg")}})
	if _, err := decodePairs(enc[:len(enc)-1]); err == nil {
		t.Error("truncated pair buffer should fail")
	}
}

// Property: pair encoding round-trips and sizes agree.
func TestPairRoundTripProperty(t *testing.T) {
	f := func(keys, vals [][]byte) bool {
		n := len(keys)
		if len(vals) < n {
			n = len(vals)
		}
		in := make([]Pair, n)
		for i := 0; i < n; i++ {
			in[i] = Pair{Key: keys[i], Value: vals[i]}
		}
		enc := EncodePairs(in)
		if int64(len(enc)) != PairsSize(in) {
			return false
		}
		out, err := decodePairs(enc)
		if err != nil || len(out) != len(in) {
			return false
		}
		for i := range in {
			if !bytes.Equal(out[i].Key, in[i].Key) || !bytes.Equal(out[i].Value, in[i].Value) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
