package memo

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// value returns a compute that yields v, counting its invocations.
func value(v int, calls *atomic.Int64) func() (int, error) {
	return func() (int, error) {
		calls.Add(1)
		return v, nil
	}
}

// mustDo resolves k and fails the test on an error.
func mustDo(t *testing.T, g *Group[string, int], k string, fn func() (int, error)) (int, bool) {
	t.Helper()
	v, shared, err := g.Do(context.Background(), k, fn)
	if err != nil {
		t.Fatalf("Do(%q): %v", k, err)
	}
	return v, shared
}

func TestGroup(t *testing.T) {
	for _, tc := range []struct {
		name string
		test func(t *testing.T)
	}{
		{"singleflight runs the compute once", func(t *testing.T) {
			g := New[string, int](0)
			var calls atomic.Int64
			started, release := make(chan struct{}), make(chan struct{})
			fn := func() (int, error) {
				if calls.Add(1) == 1 {
					close(started)
				}
				<-release
				return 7, nil
			}
			const callers = 16
			var shared atomic.Int64
			var wg sync.WaitGroup
			for i := 0; i < callers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					v, s, err := g.Do(context.Background(), "k", fn)
					if err != nil || v != 7 {
						t.Errorf("Do = %d, %v", v, err)
					}
					if s {
						shared.Add(1)
					}
				}()
			}
			// Every caller but the executor either waits on its claim or
			// arrives after the publish; both share the one value.
			<-started
			close(release)
			wg.Wait()
			if n := calls.Load(); n != 1 {
				t.Fatalf("compute ran %d times, want 1", n)
			}
			if n := shared.Load(); n != callers-1 {
				t.Errorf("%d callers shared, want %d", n, callers-1)
			}
			if st := g.Stats(); st.Misses != 1 || st.Hits != callers-1 {
				t.Errorf("stats = %+v", st)
			}
		}},
		{"an error is not cached", func(t *testing.T) {
			g := New[string, int](0)
			boom := errors.New("boom")
			if _, _, err := g.Do(context.Background(), "k", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
				t.Fatalf("err = %v, want boom", err)
			}
			if g.Len() != 0 {
				t.Fatalf("failed compute left %d entries", g.Len())
			}
			var calls atomic.Int64
			if v, shared := mustDo(t, g, "k", value(3, &calls)); v != 3 || shared || calls.Load() != 1 {
				t.Fatalf("retry = %d shared=%v calls=%d", v, shared, calls.Load())
			}
		}},
		{"a panic releases the claim and is re-raised", func(t *testing.T) {
			g := New[string, int](0)
			func() {
				defer func() {
					if r := recover(); r != "compute bug" {
						t.Fatalf("recovered %v, want the compute's panic", r)
					}
				}()
				_, _, _ = g.Do(context.Background(), "k", func() (int, error) { panic("compute bug") })
			}()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			v, shared, err := g.Do(ctx, "k", func() (int, error) { return 4, nil })
			if err != nil || shared || v != 4 {
				t.Fatalf("after panic: %d shared=%v err=%v", v, shared, err)
			}
		}},
		{"a waiter's ctx ends its wait, not the compute", func(t *testing.T) {
			g := New[string, int](0)
			_, c, err := g.Claim(context.Background(), "k")
			if err != nil || c == nil {
				t.Fatalf("Claim: %v, claim=%v", err, c)
			}
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				_, _, err := g.Do(ctx, "k", func() (int, error) { return 0, errors.New("waiter computed") })
				done <- err
			}()
			cancel()
			if err := <-done; !errors.Is(err, context.Canceled) {
				t.Fatalf("waiter err = %v, want context.Canceled", err)
			}
			c.Publish(9)
			if v, shared := mustDo(t, g, "k", nil); v != 9 || !shared {
				t.Fatalf("executor's value lost: %d shared=%v", v, shared)
			}
		}},
		{"LRU keeps a touched key", func(t *testing.T) {
			g := New[string, int](2)
			var calls atomic.Int64
			mustDo(t, g, "a", value(1, &calls))
			mustDo(t, g, "b", value(2, &calls))
			mustDo(t, g, "a", nil) // touch: b is now the oldest
			mustDo(t, g, "c", value(3, &calls))
			if g.Len() != 2 {
				t.Fatalf("Len = %d, want 2", g.Len())
			}
			if v, shared := mustDo(t, g, "a", nil); v != 1 || !shared {
				t.Fatalf("touched key evicted")
			}
			before := calls.Load()
			if _, shared := mustDo(t, g, "b", value(2, &calls)); shared || calls.Load() != before+1 {
				t.Fatal("oldest key survived the bound")
			}
		}},
		{"limit <= 0 is unbounded", func(t *testing.T) {
			for _, limit := range []int{0, -1} {
				g := New[string, int](limit)
				var calls atomic.Int64
				const n = 1000
				for i := 0; i < n; i++ {
					mustDo(t, g, fmt.Sprint(i), value(i, &calls))
				}
				if g.Len() != n {
					t.Fatalf("limit %d: Len = %d, want %d", limit, g.Len(), n)
				}
				if v, shared := mustDo(t, g, "0", nil); v != 0 || !shared {
					t.Fatalf("limit %d: first key evicted", limit)
				}
			}
		}},
		{"Claim publish and abandon", func(t *testing.T) {
			g := New[string, int](0)
			ctx := context.Background()

			// A caller of an abandoned key, whether it was already waiting
			// or arrives after, gets a fresh claim of its own.
			_, c, _ := g.Claim(ctx, "k")
			reclaimed := make(chan *Claim[string, int], 1)
			go func() {
				_, c2, err := g.Claim(ctx, "k")
				if err != nil {
					t.Error(err)
				}
				reclaimed <- c2
			}()
			c.Abandon()
			c2 := <-reclaimed
			if c2 == nil {
				t.Fatal("waiter got a value from an abandoned claim")
			}

			// A deferred Abandon after Publish is a no-op.
			func() {
				defer c2.Abandon()
				c2.Publish(5)
			}()
			if v, c3, err := g.Claim(ctx, "k"); err != nil || c3 != nil || v != 5 {
				t.Fatalf("published value lost: %d claim=%v err=%v", v, c3 != nil, err)
			}

			// A deferred Abandon with no Publish releases the key.
			func() {
				_, c4, _ := g.Claim(ctx, "j")
				defer c4.Abandon()
			}()
			if _, c5, _ := g.Claim(ctx, "j"); c5 == nil {
				t.Fatal("deferred Abandon left the claim held")
			} else {
				c5.Abandon()
			}
		}},
	} {
		t.Run(tc.name, tc.test)
	}
}
