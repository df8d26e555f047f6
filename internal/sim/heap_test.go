package sim

import (
	"container/heap"
	"math/rand"
	"testing"
	"time"
	"unsafe"
)

// refEvent / refHeap is a container/heap reference implementation of the
// event queue with the same (at, seq) ordering contract as the engine's
// inlined heap. The property test below drives both through identical
// randomized schedules and requires identical execution orders.
type refEvent struct {
	at  Time
	seq uint64
	fn  func()
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// refEngine is a minimal scheduler built on container/heap, used only as a
// test oracle.
type refEngine struct {
	now Time
	h   refHeap
	seq uint64
}

func (e *refEngine) At(t Time, fn func()) {
	if t < e.now {
		panic("refEngine: scheduling in the past")
	}
	e.seq++
	heap.Push(&e.h, &refEvent{at: t, seq: e.seq, fn: fn})
}

func (e *refEngine) After(d time.Duration, fn func()) { e.At(e.now+d, fn) }

func (e *refEngine) Run() error {
	for len(e.h) > 0 {
		ev := heap.Pop(&e.h).(*refEvent)
		e.now = ev.at
		ev.fn()
	}
	return nil
}

// simClock abstracts the two engines so the same random script can drive
// both.
type simClock interface {
	At(t Time, fn func())
	After(d time.Duration, fn func())
	Now() Time
	Run() error
}

func (e *refEngine) Now() Time { return e.now }

// trace records one executed event: its label and the clock when it ran.
type traceEntry struct {
	label int
	at    Time
}

// actionFunc adapts a func() to the Action interface so the script can
// exercise the engine's AtAction path alongside At.
type actionFunc struct{ f func() }

func (a *actionFunc) Run() { a.f() }

// runScript drives a scheduler through a deterministic randomized workload:
// root events at random times (with deliberate time collisions to stress the
// FIFO tie-break), callbacks that schedule further events from within the
// run, including zero-delay children. useActions routes even-numbered
// labels through the Action path when the scheduler is the real Engine.
func runScript(c simClock, seed int64, useActions bool) []traceEntry {
	rng := rand.New(rand.NewSource(seed))
	var got []traceEntry
	nextLabel := 0
	eng, _ := c.(*Engine)

	var spawn func(depth int) func()
	schedule := func(t Time, fn func(), label int) {
		if useActions && eng != nil && label%2 == 0 {
			eng.AtAction(t, &actionFunc{f: fn})
		} else {
			c.At(t, fn)
		}
	}
	spawn = func(depth int) func() {
		label := nextLabel
		nextLabel++
		return func() {
			got = append(got, traceEntry{label: label, at: c.Now()})
			if depth >= 4 {
				return
			}
			for i, n := 0, rng.Intn(3); i < n; i++ {
				// Quantized delays (including zero) force equal-time
				// events, exercising the (at, seq) tie-break.
				d := time.Duration(rng.Intn(4)) * 10 * time.Microsecond
				child := spawn(depth + 1)
				childLabel := nextLabel - 1
				schedule(c.Now()+d, child, childLabel)
			}
		}
	}
	for i := 0; i < 50; i++ {
		t := time.Duration(rng.Intn(20)) * 10 * time.Microsecond
		root := spawn(0)
		schedule(t, root, nextLabel-1)
	}
	c.Run()
	return got
}

// TestHeapMatchesContainerHeapReference is the event-heap property test: for
// many seeds, the inlined heap must execute the exact same events at the
// exact same times in the exact same order as a container/heap reference,
// including FIFO ordering of equal-time events and events scheduled from
// within callbacks.
func TestHeapMatchesContainerHeapReference(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		want := runScript(&refEngine{}, seed, false)
		got := runScript(NewEngine(), seed, false)
		gotActs := runScript(NewEngine(), seed, true)
		if len(got) == 0 {
			t.Fatalf("seed %d: empty trace", seed)
		}
		for name, g := range map[string][]traceEntry{"closures": got, "actions": gotActs} {
			if len(g) != len(want) {
				t.Fatalf("seed %d (%s): executed %d events, reference executed %d", seed, name, len(g), len(want))
			}
			for i := range want {
				if g[i] != want[i] {
					t.Fatalf("seed %d (%s): event %d = %+v, reference %+v", seed, name, i, g[i], want[i])
				}
			}
		}
	}
}

// TestHeapPopZeroesSlot guards the no-retention property: after events run,
// the heap's backing array must not keep callback references alive.
func TestHeapPopZeroesSlot(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 16; i++ {
		e.At(time.Duration(i)*time.Microsecond, func() {})
	}
	grown := e.events[:cap(e.events)]
	e.Run()
	for i := range grown {
		if grown[i].op != nil {
			t.Fatalf("slot %d retains a callback after drain: %+v", i, grown[i])
		}
	}
}

// TestHeapPastSchedulingPanics pins the causality guard.
func TestHeapPastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(10*time.Microsecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling before now did not panic")
			}
		}()
		e.At(5*time.Microsecond, func() {})
	})
	e.Run()
}

// TestEventSize pins the queue slot at two words of ordering plus one
// Action: a second callback field would grow every heap move.
func TestEventSize(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n != 32 {
		t.Fatalf("event is %d bytes, want 32", n)
	}
}
