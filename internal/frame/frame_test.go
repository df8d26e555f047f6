package frame

import (
	"bytes"
	"errors"
	"testing"
)

var testMagic = [8]byte{'T', 'E', 'S', 'T', 'F', 'R', 'M', 0}

type rec struct {
	kind    byte
	payload []byte
}

var testRecs = []rec{{1, []byte(`{"spec":true}`)}, {2, nil}, {'S', bytes.Repeat([]byte{0xA5}, 300)}}

// file builds a header plus testRecs.
func file(t testing.TB) []byte {
	t.Helper()
	b := AppendHeader(nil, testMagic, 7)
	for _, r := range testRecs {
		var err error
		if b, err = AppendRecord(b, r.kind, r.payload); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// readAll parses a whole file, returning the records before the first
// error and that error.
func readAll(b []byte, limit int) ([]rec, error) {
	rest, err := Header(b, testMagic, 7)
	if err != nil {
		return nil, err
	}
	var out []rec
	for len(rest) > 0 {
		var r rec
		if r.kind, r.payload, rest, err = Next(rest, limit); err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

func TestFrame(t *testing.T) {
	good := file(t)
	flip := func(i int) []byte {
		b := append([]byte(nil), good...)
		b[i] ^= 0x10
		return b
	}
	cases := []struct {
		name  string
		in    []byte
		limit int
		recs  int
		err   error
	}{
		{"round trip", good, 1 << 10, 3, nil},
		{"header only", good[:HeaderLen], 1 << 10, 0, nil},
		{"empty", nil, 1 << 10, 0, ErrTorn},
		{"magic prefix", good[:5], 1 << 10, 0, ErrTorn},
		{"other magic", []byte("IDASNAP\x00\x01\x00\x00\x00"), 1 << 10, 0, ErrMagic},
		{"junk", []byte("short"), 1 << 10, 0, ErrMagic},
		{"version", flip(8), 1 << 10, 0, ErrVersion},
		{"torn head", good[:HeaderLen+3], 1 << 10, 0, ErrTorn},
		{"torn tail", good[:len(good)-1], 1 << 10, 2, ErrTorn},
		{"limit", good, 299, 2, ErrTooLarge},
		{"negative limit", good, -1, 0, ErrTooLarge},
		{"kind flip", flip(HeaderLen), 1 << 10, 0, ErrChecksum},
		{"payload flip", flip(HeaderLen + 6), 1 << 10, 0, ErrChecksum},
		{"crc flip", flip(len(good) - 1), 1 << 10, 2, ErrChecksum},
	}
	for _, tc := range cases {
		recs, err := readAll(tc.in, tc.limit)
		if !errors.Is(err, tc.err) || (tc.err == nil && err != nil) {
			t.Errorf("%s: err %v, want %v", tc.name, err, tc.err)
		}
		if len(recs) != tc.recs {
			t.Errorf("%s: %d records, want %d", tc.name, len(recs), tc.recs)
		}
		for i, r := range recs {
			if r.kind != testRecs[i].kind || !bytes.Equal(r.payload, testRecs[i].payload) {
				t.Errorf("%s: record %d = %q %q", tc.name, i, r.kind, r.payload)
			}
		}
	}
}

func TestTruncationIsTorn(t *testing.T) {
	good := file(t)
	boundary := map[int]bool{HeaderLen: true}
	end := HeaderLen
	for _, r := range testRecs {
		end += 5 + len(r.payload) + 8
		boundary[end] = true
	}
	for cut := 0; cut < len(good); cut++ {
		recs, err := readAll(good[:cut], 1<<10)
		if boundary[cut] {
			// A cut on a record boundary is a shorter, valid file.
			if err != nil {
				t.Errorf("cut %d at a record boundary: %v", cut, err)
			}
			continue
		}
		if !errors.Is(err, ErrTorn) {
			t.Errorf("cut %d: err %v (%d records), want ErrTorn", cut, err, len(recs))
		}
	}
}

func TestEveryBitFlipDetected(t *testing.T) {
	good := file(t)
	for i := range good {
		for bit := 0; bit < 8; bit++ {
			b := append([]byte(nil), good...)
			b[i] ^= 1 << bit
			if _, err := readAll(b, 1<<10); err == nil {
				t.Fatalf("flip of bit %d in byte %d went undetected", bit, i)
			}
		}
	}
}

// FuzzNext asserts Next never panics on arbitrary input, never returns a
// payload over its limit, and that whatever it accepts re-encodes to the
// bytes it consumed.
func FuzzNext(f *testing.F) {
	good := file(f)
	f.Add(good[HeaderLen:], 1<<10)
	f.Add(good[HeaderLen:HeaderLen+9], 1<<10)
	f.Add([]byte{}, 0)
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff}, -1)
	f.Fuzz(func(t *testing.T, b []byte, limit int) {
		kind, payload, rest, err := Next(b, limit)
		if err != nil {
			return
		}
		if len(payload) > limit {
			t.Fatalf("%d-byte payload over limit %d", len(payload), limit)
		}
		again, err := AppendRecord(nil, kind, payload)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, b[:len(b)-len(rest)]) {
			t.Fatal("accepted record does not re-encode to its bytes")
		}
	})
}
