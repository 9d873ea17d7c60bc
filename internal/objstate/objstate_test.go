package objstate

import (
	"bytes"
	"errors"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"godcdo/internal/wire"
)

func TestSetGetDeleteLen(t *testing.T) {
	s := New()
	if s.Len() != 0 {
		t.Fatal("new state not empty")
	}
	s.Set("a", []byte{1, 2})
	s.Set("b", nil)
	v, ok := s.Get("a")
	if !ok || !bytes.Equal(v, []byte{1, 2}) {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	if _, ok := s.Get("missing"); ok {
		t.Fatal("found missing key")
	}
	s.Delete("a")
	if _, ok := s.Get("a"); ok {
		t.Fatal("deleted key still present")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got := s.Keys(); !reflect.DeepEqual(got, []string{"b"}) {
		t.Fatalf("Keys = %v", got)
	}
}

func TestGetSetCopySemantics(t *testing.T) {
	s := New()
	in := []byte{1}
	s.Set("k", in)
	in[0] = 9
	v, _ := s.Get("k")
	if v[0] != 1 {
		t.Fatal("Set aliased caller's slice")
	}
	v[0] = 7
	v2, _ := s.Get("k")
	if v2[0] != 1 {
		t.Fatal("Get returned aliased storage")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(keys []string, vals [][]byte) bool {
		s := New()
		for i, k := range keys {
			var v []byte
			if i < len(vals) {
				v = vals[i]
			}
			s.Set(k, v)
		}
		out, err := Decode(s.Encode())
		if err != nil {
			return false
		}
		if out.Len() != s.Len() {
			return false
		}
		for _, k := range s.Keys() {
			a, _ := s.Get(k)
			b, ok := out.Get(k)
			if !ok || !bytes.Equal(a, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	a, b := New(), New()
	for _, k := range []string{"z", "a", "m"} {
		a.Set(k, []byte(k))
	}
	for _, k := range []string{"a", "m", "z"} { // different insert order
		b.Set(k, []byte(k))
	}
	if !bytes.Equal(a.Encode(), b.Encode()) {
		t.Fatal("encoding depends on insertion order")
	}
}

func TestDecodeCorrupt(t *testing.T) {
	if _, err := Decode([]byte{0xff}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	e := wire.NewEncoder(8)
	e.PutUvarint(3) // claims three entries, provides none
	if _, err := Decode(e.Bytes()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := string(rune('a' + w))
			for i := 0; i < 200; i++ {
				s.Set(key, []byte{byte(i)})
				if _, ok := s.Get(key); !ok {
					t.Errorf("key %q lost", key)
					return
				}
				_ = s.Encode()
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 8 {
		t.Fatalf("Len = %d, want 8", s.Len())
	}
}

// wireEncode is the reference encoding built with wire.Encoder: a key count,
// then each key and value length-prefixed, keys sorted.
func wireEncode(s *State) []byte {
	keys := s.Keys()
	e := wire.NewEncoder(64)
	e.PutUvarint(uint64(len(keys)))
	for _, k := range keys {
		v, _ := s.Get(k)
		e.PutString(k)
		e.PutBytes(v)
	}
	return e.Bytes()
}

// TestAppendEncodeProperty checks AppendEncode against Encode and the wire
// reference encoding: appending to any prefix yields prefix ‖ image, grow is
// called once with the exact image size and its buffer is filled in place,
// and the returned generation is Generation() when no writer races.
func TestAppendEncodeProperty(t *testing.T) {
	f := func(keys []string, vals [][]byte, prefix []byte, spare uint8) bool {
		s := New()
		for i, k := range keys {
			var v []byte
			if i < len(vals) {
				v = vals[i]
			}
			s.Set(k, v)
		}
		image := s.Encode()
		if !bytes.Equal(image, wireEncode(s)) {
			return false
		}
		dst := append(make([]byte, 0, len(prefix)+int(spare)), prefix...)
		got, gen := s.AppendEncode(dst, nil)
		if gen != s.Generation() || !bytes.Equal(got, append(bytes.Clone(prefix), image...)) {
			return false
		}

		calls := 0
		var grown []byte
		got, gen = s.AppendEncode(prefix, func(dst []byte, n int) []byte {
			calls++
			if n != len(image) {
				return nil
			}
			grown = append(make([]byte, 0, len(dst)+1+n), dst...)
			grown = append(grown, '|')
			return grown
		})
		want := append(append(bytes.Clone(prefix), '|'), image...)
		return calls == 1 && gen == s.Generation() && bytes.Equal(got, want) &&
			cap(got) == cap(grown) && &got[:1][0] == &grown[:1][0]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
