// Package objstate provides the serialisable key/value state container
// shared by all stateful godcdo objects: normal Legion objects carry one,
// and DCDOs carry one so their data survives evolution and migration while
// their implementation changes underneath it.
package objstate

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"godcdo/internal/wire"
)

// State is a mutable key→bytes map guarded internally. Methods read and
// write it; capture/restore serialise it deterministically. A generation
// counter increments on every mutation so replication can cheaply detect
// "did this call change anything" without diffing or re-encoding.
type State struct {
	mu   sync.Mutex
	data map[string][]byte
	gen  uint64
}

// New returns an empty state.
func New() *State {
	return &State{data: make(map[string][]byte)}
}

// Get returns a copy of the value stored under key.
func (s *State) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.data[key]
	if !ok {
		return nil, false
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out, true
}

// Set stores a copy of value under key.
func (s *State) Set(key string, value []byte) {
	v := make([]byte, len(value))
	copy(v, value)
	s.mu.Lock()
	s.data[key] = v
	s.gen++
	s.mu.Unlock()
}

// Delete removes key.
func (s *State) Delete(key string) {
	s.mu.Lock()
	if _, ok := s.data[key]; ok {
		delete(s.data, key)
		s.gen++
	}
	s.mu.Unlock()
}

// Generation reports the mutation counter: it increments on every Set,
// effective Delete, and ReplaceFrom. Equal generations across two reads
// mean no mutation happened in between.
func (s *State) Generation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// Keys returns the sorted keys.
func (s *State) Keys() []string {
	s.mu.Lock()
	keys := make([]string, 0, len(s.data))
	for k := range s.data {
		keys = append(keys, k)
	}
	s.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// Len reports the number of keys.
func (s *State) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.data)
}

// Encode serialises the state deterministically (sorted keys).
func (s *State) Encode() []byte {
	image, _ := s.AppendEncode(nil, nil)
	return image
}

// AppendEncode appends Encode's image to dst and returns the extended slice
// with the generation the image captures, both read under one hold of the
// state lock. The image is sized before it is written, so it lands in one
// pass with no regrowth. grow, when non-nil, is called once under the lock
// with dst and the image size n, and returns the slice to append to, which
// must have room for n more bytes: the hook lets a caller put its own header
// (say, a length prefix) in front of the image in a buffer it chose, and it
// must not call back into the State. With a nil grow, dst is extended by at
// most one allocation.
func (s *State) AppendEncode(dst []byte, grow func(dst []byte, n int) []byte) ([]byte, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.data))
	n := wire.UvarintLen(uint64(len(s.data)))
	for k, v := range s.data {
		keys = append(keys, k)
		n += wire.UvarintLen(uint64(len(k))) + len(k) + wire.UvarintLen(uint64(len(v))) + len(v)
	}
	slices.Sort(keys)
	if grow != nil {
		dst = grow(dst, n)
	} else {
		dst = slices.Grow(dst, n)
	}
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		v := s.data[k]
		dst = binary.AppendUvarint(dst, uint64(len(k)))
		dst = append(dst, k...)
		dst = binary.AppendUvarint(dst, uint64(len(v)))
		dst = append(dst, v...)
	}
	return dst, s.gen
}

// ErrCorrupt is returned when captured state cannot be decoded.
var ErrCorrupt = errors.New("objstate: corrupt state")

// Decode parses state produced by Encode.
func Decode(buf []byte) (*State, error) {
	dec := wire.NewDecoder(buf)
	n, err := dec.Uvarint()
	if err != nil {
		return nil, fmt.Errorf("%w: count: %v", ErrCorrupt, err)
	}
	if n > uint64(dec.Remaining()) {
		return nil, fmt.Errorf("%w: count %d exceeds buffer", ErrCorrupt, n)
	}
	s := New()
	for i := uint64(0); i < n; i++ {
		k, err := dec.String()
		if err != nil {
			return nil, fmt.Errorf("%w: key: %v", ErrCorrupt, err)
		}
		v, err := dec.Bytes()
		if err != nil {
			return nil, fmt.Errorf("%w: value: %v", ErrCorrupt, err)
		}
		s.Set(k, v)
	}
	return s, nil
}

// ReplaceFrom atomically replaces the state's contents with those encoded
// in buf (produced by Encode on another State). On decode failure the state
// is left untouched. This is the backup side of replica state shipping: the
// primary's snapshot lands as one generation bump, never as a partially
// applied mixture.
func (s *State) ReplaceFrom(buf []byte) error {
	next, err := Decode(buf)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.data = next.data
	s.gen++
	s.mu.Unlock()
	return nil
}
