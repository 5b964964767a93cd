package event

import (
	"encoding/json"
	"slices"
	"sync"
)

// Events are what a broker decodes most: every publish, forward and
// delivery frame carries them. encoding/json decodes one by reflection,
// growing each slice by doubling and copying every string afresh: about 25
// allocations and 860 bytes for an eight-tuple event. A busy daemon's heap
// grows by that garbage in proportion to the events it reads, which ties
// its resident set to how fast it runs. UnmarshalJSON parses the shape
// encoding/json writes directly instead. It sizes Theme and Tuples exactly
// and interns theme, attribute and value strings, so a decoded event costs
// its two slices and its ID however wide it is. Any other input goes
// through encoding/json, and both paths decode the same bytes to the same
// event. Neither keeps a reference to the input bytes.

// UnmarshalJSON decodes an event. On a zero Event, JSON in the plain
// shape — keys "id", "theme" and "tuples" (and "attr", "value" inside a
// tuple), each at most once, and strings of ASCII without escapes — is
// parsed directly; everything else is decoded by encoding/json.
func (e *Event) UnmarshalJSON(data []byte) error {
	if e.ID == "" && e.Theme == nil && e.Tuples == nil && e.decodePlain(data) {
		return nil
	}
	type fields Event // Event's fields, without this method
	return json.Unmarshal(data, (*fields)(e))
}

// decodePlain parses data into e if it is an event in the plain shape,
// and reports whether it was. e is untouched when it was not.
func (e *Event) decodePlain(data []byte) bool {
	s := plainScan{b: data, ok: true}
	var (
		ev   Event
		seen uint8
	)
	s.object(func(key []byte) {
		// A repeated key is left to encoding/json, which decodes the
		// second array into the first one's elements.
		var bit uint8
		switch string(key) {
		case "id":
			bit = 1
			ev.ID = string(s.str())
		case "theme":
			bit = 2
			ev.Theme = s.strings()
		case "tuples":
			bit = 4
			ev.Tuples = s.tuples()
		default:
			s.ok = false
		}
		if seen&bit != 0 {
			s.ok = false
		}
		seen |= bit
	})
	s.space()
	if !s.ok || s.i != len(s.b) {
		return false
	}
	*e = ev
	return true
}

// A broker holds every subscription it registers for as long as it lives,
// so a decoded subscription's bytes are resident ones. Subscriptions are
// decoded once per registration, not once per event, so reflection's cost
// does not matter here, but what it leaves behind does.

// UnmarshalJSON decodes a subscription as encoding/json does, then sizes
// Theme and Predicates exactly and interns theme, attribute and value
// strings, so a registration keeps no slack and shares its vocabulary.
func (s *Subscription) UnmarshalJSON(data []byte) error {
	type fields Subscription // Subscription's fields, without this method
	if err := json.Unmarshal(data, (*fields)(s)); err != nil {
		return err
	}
	s.Theme = slices.Clone(s.Theme)
	for i, t := range s.Theme {
		s.Theme[i] = internString(t)
	}
	s.Predicates = slices.Clone(s.Predicates)
	for i := range s.Predicates {
		p := &s.Predicates[i]
		p.Attr, p.Value = internString(p.Attr), internString(p.Value)
	}
	return nil
}

// plainScan walks JSON in the plain shape. ok turns false at the first
// byte outside that shape, and every method is a no-op from then on.
type plainScan struct {
	b  []byte
	i  int
	ok bool
}

// space skips JSON whitespace.
func (s *plainScan) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// next consumes c and reports true if c is the next token.
func (s *plainScan) next(c byte) bool {
	s.space()
	if s.ok && s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// want consumes c, failing the scan unless c is the next token.
func (s *plainScan) want(c byte) {
	if !s.next(c) {
		s.ok = false
	}
}

// str consumes a string of ASCII bytes from space upward, without escapes,
// and returns its contents, which alias the input.
func (s *plainScan) str() []byte {
	s.want('"')
	for start := s.i; s.ok && s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1]
		case c < 0x20 || c >= 0x80 || c == '\\':
			s.ok = false
		}
	}
	s.ok = false
	return nil
}

// list consumes an array, calling elem to consume each element.
func (s *plainScan) list(elem func()) {
	s.want('[')
	if s.next(']') {
		return
	}
	for s.ok {
		elem()
		if !s.next(',') {
			s.want(']')
			return
		}
	}
}

// object consumes an object, calling field with each key to consume its
// value.
func (s *plainScan) object(field func(key []byte)) {
	s.want('{')
	if s.next('}') {
		return
	}
	for s.ok {
		k := s.str()
		s.want(':')
		field(k)
		if !s.next(',') {
			s.want('}')
			return
		}
	}
}

// strings consumes an array of strings into an exactly sized slice of
// interned strings.
func (s *plainScan) strings() []string {
	var buf [8]string
	out := buf[:0]
	s.list(func() { out = append(out, intern(s.str())) })
	return append(make([]string, 0, len(out)), out...)
}

// tuples consumes an array of tuples into an exactly sized slice, with
// interned attributes and values.
func (s *plainScan) tuples() []Tuple {
	var buf [16]Tuple
	out := buf[:0]
	s.list(func() {
		var t Tuple
		var seen uint8
		s.object(func(key []byte) {
			var bit uint8
			switch string(key) {
			case "attr":
				bit = 1
				t.Attr = intern(s.str())
			case "value":
				bit = 2
				t.Value = intern(s.str())
			default:
				s.ok = false
			}
			if seen&bit != 0 {
				s.ok = false
			}
			seen |= bit
		})
		out = append(out, t)
	})
	return append(make([]Tuple, 0, len(out)), out...)
}

// The interner holds the theme, attribute and value strings decoded events
// share: a workload's vocabulary, met again in every event. It is bounded
// and never evicts: past internMax distinct strings, or for a string
// longer than internLen, a decoded string is a copy of its own, as
// encoding/json would make.
const (
	internMax = 1 << 14
	internLen = 64
)

var interned struct {
	sync.RWMutex
	m map[string]string
}

// intern returns b as a string, shared with every earlier decode of the
// same bytes while the interner has room.
func intern(b []byte) string {
	if len(b) > internLen {
		return string(b)
	}
	interned.RLock()
	s, ok := interned.m[string(b)]
	interned.RUnlock()
	if ok {
		return s
	}
	return internNew(string(b))
}

// internString is intern for a string already decoded.
func internString(s string) string {
	if len(s) > internLen {
		return s
	}
	interned.RLock()
	v, ok := interned.m[s]
	interned.RUnlock()
	if ok {
		return v
	}
	return internNew(s)
}

// internNew files s in the interner while it has room, and returns it.
func internNew(s string) string {
	interned.Lock()
	if interned.m == nil {
		interned.m = make(map[string]string)
	}
	if len(interned.m) < internMax {
		interned.m[s] = s
	}
	interned.Unlock()
	return s
}
