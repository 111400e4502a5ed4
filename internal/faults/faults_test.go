package faults

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// arm installs spec for the duration of the test. Tests using it cannot run
// in parallel with each other (process-wide registry), which mirrors how the
// production plan is global too.
func arm(t *testing.T, spec string) {
	t.Helper()
	if err := Arm(spec); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(Disarm)
}

func TestDisarmedIsNil(t *testing.T) {
	Disarm()
	if Enabled() {
		t.Fatal("enabled with no plan")
	}
	if err := Point("solve.pre"); err != nil {
		t.Fatalf("disarmed point returned %v", err)
	}
	if Snapshot() != nil || Points() != nil {
		t.Fatal("disarmed snapshot not nil")
	}
}

func TestErrorMode(t *testing.T) {
	arm(t, "a:error=boom")
	err := Point("a")
	var f *Fault
	if !errors.As(err, &f) || f.PointName != "a" || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("got %v", err)
	}
	if err := Point("other"); err != nil {
		t.Fatalf("unspecified point fired: %v", err)
	}
	st := Snapshot()
	if st["a"].Hits != 1 || st["a"].Fires != 1 {
		t.Fatalf("stats %+v", st["a"])
	}
}

func TestPanicMode(t *testing.T) {
	arm(t, "b:panic=dead")
	defer func() {
		r := recover()
		f, ok := r.(*Fault)
		if !ok || f.PointName != "b" {
			t.Fatalf("recovered %v", r)
		}
	}()
	Point("b")
	t.Fatal("no panic")
}

func TestDelayMode(t *testing.T) {
	arm(t, "c:delay=20ms")
	t0 := time.Now()
	if err := Point("c"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d < 15*time.Millisecond {
		t.Fatalf("slept only %s", d)
	}
}

func TestCountAndAfter(t *testing.T) {
	arm(t, "d:error,after=2,count=3")
	fires := 0
	for i := 0; i < 10; i++ {
		if Point("d") != nil {
			fires++
			if i < 2 {
				t.Fatalf("fired during after window at hit %d", i)
			}
		}
	}
	if fires != 3 {
		t.Fatalf("fired %d times, want 3", fires)
	}
}

func TestProbabilityBounds(t *testing.T) {
	arm(t, "e:error,p=0.5")
	fires := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if Point("e") != nil {
			fires++
		}
	}
	if fires < n/4 || fires > 3*n/4 {
		t.Fatalf("p=0.5 fired %d/%d", fires, n)
	}
	st := Snapshot()
	if st["e"].Hits != n || st["e"].Fires != int64(fires) {
		t.Fatalf("stats %+v, fires %d", st["e"], fires)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"noseparator",
		"x:",
		"x:p=0.5",     // modifier before any mode
		"x:error,p=2", // p out of range
		"x:error,count=-1",
		"x:delay", // delay without duration
		"x:delay=zzz",
		"x:error;x:panic", // duplicate point
		"x:error,whatever=1",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
	if pl, err := Parse("  "); err != nil || pl != nil {
		t.Fatalf("empty spec: %v %v", pl, err)
	}
}

func TestArmEmptyDisarms(t *testing.T) {
	arm(t, "f:error")
	if !Enabled() {
		t.Fatal("not enabled")
	}
	if err := Arm(""); err != nil {
		t.Fatal(err)
	}
	if Enabled() {
		t.Fatal("still enabled after empty Arm")
	}
}

func TestConcurrentPoints(t *testing.T) {
	arm(t, "g:error,p=0.5;h:delay=1us")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				Point("g")
				Point("h")
				Snapshot()
			}
		}()
	}
	wg.Wait()
	st := Snapshot()
	if st["g"].Hits != 4000 || st["h"].Hits != 4000 {
		t.Fatalf("stats %+v", st)
	}
}

// BenchmarkPointDisarmed pins the disarmed cost of an injection site: one
// atomic pointer load, so sites can sit on hot paths (CI runs this via the
// bench smoke).
func BenchmarkPointDisarmed(b *testing.B) {
	Disarm()
	for i := 0; i < b.N; i++ {
		if err := Point("solve.pre"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPointArmedMiss measures an armed plan's cost at a site the plan
// does not target — the common case in a chaos run.
func BenchmarkPointArmedMiss(b *testing.B) {
	if err := Arm("other.point:error"); err != nil {
		b.Fatal(err)
	}
	defer Disarm()
	for i := 0; i < b.N; i++ {
		if err := Point("solve.pre"); err != nil {
			b.Fatal(err)
		}
	}
}
