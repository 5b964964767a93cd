package event

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"unsafe"
)

// plainEvent has Event's fields without its UnmarshalJSON: what
// encoding/json alone decodes an event to.
type plainEvent Event

// plainInputs are in the plain shape the direct parser takes.
var plainInputs = []string{
	`{"id":"e17","theme":["energy","appliances"],"tuples":[{"attr":"type","value":"increased energy consumption event"},{"attr":"device","value":"computer"}]}`,
	`{"tuples":[{"attr":"a","value":"b"}]}`,
	`{"id":"x","theme":[],"tuples":[]}`,
	`{}`,
	` { "id" : "x" , "theme" : [ "t" ] , "tuples" : [ { "value" : "v" , "attr" : "a" } ] } `,
	`{"tuples":[{"attr":"a"},{"value":"b"},{}]}`,
	`{"id":"","theme":[""],"tuples":[{"attr":"","value":""}]}`,
	`{"tuples":[{"attr":"a0","value":"0"},{"attr":"a1","value":"1"},{"attr":"a2","value":"2"},{"attr":"a3","value":"3"},{"attr":"a4","value":"4"},{"attr":"a5","value":"5"},{"attr":"a6","value":"6"},{"attr":"a7","value":"7"},{"attr":"a8","value":"8"},{"attr":"a9","value":"9"},{"attr":"a10","value":"10"},{"attr":"a11","value":"11"},{"attr":"a12","value":"12"},{"attr":"a13","value":"13"},{"attr":"a14","value":"14"},{"attr":"a15","value":"15"},{"attr":"a16","value":"16"},{"attr":"a17","value":"17"}]}`,
	`{"theme":["t0","t1","t2","t3","t4","t5","t6","t7","t8","t9"],"tuples":[{"attr":"a","value":"b"}]}`,
	`{"tuples":[{"attr":"a very long attribute name that is longer than sixty-four bytes, so it is copied","value":"v"}]}`,
}

// otherInputs are left to encoding/json: escapes, non-ASCII, other key
// spellings, repeated keys, nulls, other types, and invalid JSON, which
// both paths must reject.
var otherInputs = []string{
	`{"id":"e\"1","tuples":[{"attr":"aé","value":"\n"}]}`,
	`{"tuples":[{"attr":"café","value":"b"}]}`,
	`{"ID":"x","Tuples":[{"Attr":"a","VALUE":"b"}]}`,
	`{"id":"x","extra":1,"tuples":[{"attr":"a","value":"b","more":[1,2]}]}`,
	`{"tuples":[{"attr":"a","value":"b"}],"tuples":[{"attr":"c"}]}`,
	`{"theme":["a"],"theme":["b","c"]}`,
	`{"id":"x","id":"y"}`,
	`{"tuples":[{"attr":"a","attr":"b","value":"c"}]}`,
	`{"id":null,"theme":null,"tuples":null}`,
	`{"tuples":[null,{"attr":"a","value":"b"}]}`,
	`null`,
	`{"id":1}`,
	`{"theme":"t"}`,
	`{"tuples":[{"attr":"a","value":"b"},]}`,
	`{"tuples":[{"attr":"a" "value":"b"}]}`,
	`{"id":"x",}`,
	`{"id":"x"} trailing`,
	`{"id":"x"`,
	`{"id":"tab	inside"}`,
	`[]`,
	``,
}

// decodeBoth decodes in with Event's UnmarshalJSON and with encoding/json
// alone, both directly and as the elements of a frame's event list.
func decodeBoth(t *testing.T, in []byte) {
	t.Helper()
	var got Event
	errGot := json.Unmarshal(in, &got)
	var want plainEvent
	errWant := json.Unmarshal(in, &want)
	if (errGot == nil) != (errWant == nil) {
		t.Fatalf("%q: error %v, encoding/json's %v", in, errGot, errWant)
	}
	if errGot == nil && !reflect.DeepEqual(got, Event(want)) {
		t.Fatalf("%q: decoded %#v, encoding/json decodes %#v", in, got, want)
	}

	list := []byte(`{"events":[` + string(in) + `,` + string(in) + `]}`)
	var gotList struct{ Events []*Event }
	errGot = json.Unmarshal(list, &gotList)
	var wantList struct{ Events []*plainEvent }
	errWant = json.Unmarshal(list, &wantList)
	if (errGot == nil) != (errWant == nil) {
		t.Fatalf("%q in a list: error %v, encoding/json's %v", in, errGot, errWant)
	}
	if errGot == nil && !reflect.DeepEqual(gotList.Events, asEvents(wantList.Events)) {
		t.Fatalf("%q in a list: decoded %v, encoding/json decodes %v", in, gotList.Events, wantList.Events)
	}
}

// asEvents converts encoding/json's decoded list for comparison.
func asEvents(ps []*plainEvent) []*Event {
	if ps == nil {
		return nil
	}
	out := make([]*Event, len(ps))
	for i, p := range ps {
		out[i] = (*Event)(p)
	}
	return out
}

func TestEventJSONMatchesEncodingJSON(t *testing.T) {
	for _, in := range plainInputs {
		if !new(Event).decodePlain([]byte(in)) {
			t.Errorf("%q: not parsed directly", in)
		}
		decodeBoth(t, []byte(in))
	}
	for _, in := range otherInputs {
		var e Event
		if e.decodePlain([]byte(in)) {
			t.Errorf("%q: parsed directly, want it left to encoding/json", in)
		}
		if !reflect.DeepEqual(e, Event{}) {
			t.Errorf("%q: a refused input changed the event to %#v", in, e)
		}
		decodeBoth(t, []byte(in))
	}
}

// TestEventJSONIntoNonZero checks that decoding into an event that already
// holds fields merges as encoding/json does: fields the input lacks keep
// their values.
func TestEventJSONIntoNonZero(t *testing.T) {
	in := []byte(`{"tuples":[{"attr":"c"}]}`)
	got := Event{ID: "old", Tuples: []Tuple{{Attr: "a", Value: "b"}}}
	want := plainEvent{ID: "old", Tuples: []Tuple{{Attr: "a", Value: "b"}}}
	if err := json.Unmarshal(in, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(in, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, Event(want)) {
		t.Fatalf("decoded %#v, encoding/json decodes %#v", got, want)
	}
}

// TestEventJSONDecodeAllocs gates the plain shape at three allocations an
// event — Theme, Tuples and ID — once its vocabulary is interned.
func TestEventJSONDecodeAllocs(t *testing.T) {
	e := &Event{
		ID:    "e123456",
		Theme: []string{"energy", "appliances"},
		Tuples: []Tuple{
			{"type", "increased energy consumption event"}, {"device", "computer"},
			{"room", "room 112"}, {"floor", "2"}, {"zone", "north"},
			{"city", "galway"}, {"street", "quay street"}, {"trend", "rising"},
		},
	}
	data, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var got Event
	allocs := testing.AllocsPerRun(100, func() {
		got = Event{}
		if err := got.UnmarshalJSON(data); err != nil {
			t.Fatal(err)
		}
	})
	if !reflect.DeepEqual(&got, e) {
		t.Fatalf("decoded %#v, want %#v", got, e)
	}
	if allocs > 3 {
		t.Errorf("decoding an eight-tuple event costs %v allocations, want at most 3", allocs)
	}
}

// FuzzEventJSON checks that Event's UnmarshalJSON decodes every input as
// encoding/json does, alone and inside a list.
func FuzzEventJSON(f *testing.F) {
	for _, in := range append(plainInputs, otherInputs...) {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		decodeBoth(t, in)
	})
}

// TestEventJSONConcurrent decodes from several goroutines at once, over
// vocabularies that overlap, so the race detector sees the interner shared.
func TestEventJSONConcurrent(t *testing.T) {
	done := make(chan error)
	for g := 0; g < 4; g++ {
		go func() {
			var err error
			for i := 0; i < 200 && err == nil; i++ {
				in := []byte(`{"id":"e","theme":["t` + string(rune('a'+(g+i)%8)) + `"],"tuples":[{"attr":"a` + string(rune('a'+i%16)) + `","value":"v"}]}`)
				var e Event
				if err = json.Unmarshal(in, &e); err == nil && (len(e.Tuples) != 1 || e.Tuples[0].Value != "v") {
					err = errors.New("decoded " + e.String())
				}
			}
			done <- err
		}()
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

// plainSubscription has Subscription's fields without its UnmarshalJSON.
type plainSubscription Subscription

// subInputs are subscriptions encoding/json decodes, and some it refuses.
var subInputs = []string{
	`{"id":"s1","theme":["energy"],"predicates":[{"attr":"type","value":"increased energy usage event","approxValue":true},{"attr":"device","value":"laptop","approxAttr":true,"approxValue":true},{"attr":"temperature","value":"30","op":4}]}`,
	`{"predicates":[{"attr":"a","value":"b"}]}`,
	`{"id":"x","theme":[],"predicates":[]}`,
	`{}`,
	` { "predicates" : [ { "op" : 0 , "approxAttr" : false , "value" : "v" , "attr" : "a" , "approxValue" : false } ] , "id" : "x" } `,
	`{"predicates":[{"attr":"a"},{"op":123456789},{}]}`,
	`{"predicates":[{"attr":"a0","value":"0"},{"attr":"a1","value":"1"},{"attr":"a2","value":"2"},{"attr":"a3","value":"3"},{"attr":"a4","value":"4"},{"attr":"a5","value":"5"},{"attr":"a6","value":"6"},{"attr":"a7","value":"7"},{"attr":"a8","value":"8"},{"attr":"a9","value":"9"}]}`,
	`{"predicates":[{"attr":"a","value":"b","op":-1}]}`,
	`{"predicates":[{"attr":"a","value":"b","op":1.5}]}`,
	`{"predicates":[{"attr":"a","value":"b","op":"1"}]}`,
	`{"predicates":[{"attr":"a","value":"b","approxAttr":null}]}`,
	`{"predicates":[{"attr":"a","value":"b","approxAttr":1}]}`,
	`{"predicates":[{"Attr":"a","value":"b","ApproxValue":true}]}`,
	`{"predicates":[{"attr":"café","value":"\n"}]}`,
	`{"predicates":[{"attr":"a"}],"predicates":[{"value":"c"}]}`,
	`{"predicates":[null]}`,
	`{"predicates":null,"theme":null,"id":null}`,
	`{"predicates":[{"attr":"a","value":"b"},]}`,
	`{"predicates":[{"attr":"a","value":"b"}]} trailing`,
	`null`,
	``,
}

// decodeBothSubscription decodes in with Subscription's UnmarshalJSON and
// with encoding/json alone, directly and as a subscribe frame's field, and
// returns the first decode.
func decodeBothSubscription(t *testing.T, in []byte) Subscription {
	t.Helper()
	var got Subscription
	errGot := json.Unmarshal(in, &got)
	var want plainSubscription
	errWant := json.Unmarshal(in, &want)
	if (errGot == nil) != (errWant == nil) {
		t.Fatalf("%q: error %v, encoding/json's %v", in, errGot, errWant)
	}
	if errGot == nil && !reflect.DeepEqual(got, Subscription(want)) {
		t.Fatalf("%q: decoded %#v, encoding/json decodes %#v", in, got, want)
	}

	frame := []byte(`{"subscription":` + string(in) + `}`)
	var gotFrame struct{ Subscription *Subscription }
	errGot = json.Unmarshal(frame, &gotFrame)
	var wantFrame struct{ Subscription *plainSubscription }
	errWant = json.Unmarshal(frame, &wantFrame)
	if (errGot == nil) != (errWant == nil) {
		t.Fatalf("%q in a frame: error %v, encoding/json's %v", in, errGot, errWant)
	}
	if errGot == nil && !reflect.DeepEqual(gotFrame.Subscription, (*Subscription)(wantFrame.Subscription)) {
		t.Fatalf("%q in a frame: decoded %v, encoding/json decodes %v", in, gotFrame.Subscription, wantFrame.Subscription)
	}
	return got
}

// TestSubscriptionJSONExactAndInterned checks that a decoded subscription
// is the one encoding/json decodes, with Theme and Predicates sized exactly
// and its strings shared with every other decode of the same vocabulary.
func TestSubscriptionJSONExactAndInterned(t *testing.T) {
	for _, in := range subInputs {
		got := decodeBothSubscription(t, []byte(in))
		if cap(got.Theme) != len(got.Theme) || cap(got.Predicates) != len(got.Predicates) {
			t.Errorf("%q: theme %d of %d, predicates %d of %d", in, len(got.Theme), cap(got.Theme), len(got.Predicates), cap(got.Predicates))
		}
	}
	sub, err := ParseSubscription("({energy, appliances}, {type = spike~, device~ = laptop~, temperature > 30, floor != 2})")
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(sub)
	if err != nil {
		t.Fatal(err)
	}
	a := decodeBothSubscription(t, data)
	b := decodeBothSubscription(t, data)
	if !reflect.DeepEqual(&a, sub) {
		t.Fatalf("%s: decoded %#v, want %#v", data, a, sub)
	}
	for i := range a.Theme {
		if unsafe.StringData(a.Theme[i]) != unsafe.StringData(b.Theme[i]) {
			t.Errorf("theme %q decoded twice into two copies", a.Theme[i])
		}
	}
	for i := range a.Predicates {
		pa, pb := a.Predicates[i], b.Predicates[i]
		if unsafe.StringData(pa.Attr) != unsafe.StringData(pb.Attr) || unsafe.StringData(pa.Value) != unsafe.StringData(pb.Value) {
			t.Errorf("predicate %v decoded twice into two copies", pa)
		}
	}
}

// FuzzSubscriptionJSON checks that Subscription's UnmarshalJSON decodes
// every input as encoding/json does, alone and inside a frame.
func FuzzSubscriptionJSON(f *testing.F) {
	for _, in := range subInputs {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		decodeBothSubscription(t, in)
	})
}
