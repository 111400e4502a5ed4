package main

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// An open loop times each request from when it was due: a request that
// waited for a slot behind a stalled one is charged for the wait.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 20 * time.Millisecond
	due := []time.Duration{0, time.Millisecond, 2 * time.Millisecond}
	smps, _ := openLoop(due, 1, nil, func(i int, s *sample) {
		s.ok = true
		time.Sleep(stall)
	})
	for i, s := range smps {
		if s.due != due[i] {
			t.Fatalf("request %d due %v, want %v", i, s.due, due[i])
		}
		if s.latency() != s.end-s.due {
			t.Fatalf("request %d: latency %v is not end-due", i, s.latency())
		}
	}
	// With one slot, the third request cannot start before two stalls have
	// passed, so its latency counts about 2*stall of waiting plus its own.
	last := smps[2]
	if last.late() < 2*stall-due[2] {
		t.Errorf("third request sent %v late; want at least %v", last.late(), 2*stall-due[2])
	}
	if last.latency() < 3*stall-due[2] {
		t.Errorf("third request latency %v; want at least %v", last.latency(), 3*stall-due[2])
	}
	if last.end-last.start >= last.latency() {
		t.Errorf("latency %v does not include the %v spent waiting to send", last.latency(), last.late())
	}
}

// A closed loop's next request is due when the previous one ends.
func TestClosedLoopDueIsPreviousEnd(t *testing.T) {
	smps, el := closedLoop(1, 30*time.Millisecond, nil, func(int) (*input, bool) { return &input{}, true },
		func(s *sample) { time.Sleep(2 * time.Millisecond) })
	if len(smps) < 2 || el < 30*time.Millisecond {
		t.Fatalf("%d samples over %v", len(smps), el)
	}
	for i := 1; i < len(smps); i++ {
		if smps[i].due != smps[i-1].end {
			t.Fatalf("sample %d due %v, previous ended %v", i, smps[i].due, smps[i-1].end)
		}
	}
}

// A speedometer reading taken between two requests is not charged to the
// second: it is due when the reading ended.
func TestClosedLoopReadingsAreNotLatency(t *testing.T) {
	sp := newSpeedometer()
	smps, _ := closedLoop(1, 200*time.Millisecond, sp, func(int) (*input, bool) { return &input{}, true },
		func(s *sample) { time.Sleep(2 * time.Millisecond) })
	if n := len(sp.readings()); n < 3 {
		t.Fatalf("%d readings over 200ms, want one per %v", n, speedEvery)
	}
	moved := 0
	for i := 1; i < len(smps); i++ {
		if smps[i].due < smps[i-1].end {
			t.Fatalf("sample %d due %v, before the previous end %v", i, smps[i].due, smps[i-1].end)
		}
		if smps[i].due > smps[i-1].end {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no request was due after a reading")
	}
}

func TestArrivalsAreSeededAndCounted(t *testing.T) {
	a := arrivals(rand.New(rand.NewSource(7)), 1000, 10*time.Second)
	b := arrivals(rand.New(rand.NewSource(7)), 1000, 10*time.Second)
	if !slices.Equal(a, b) {
		t.Fatal("same seed, different schedules")
	}
	if len(a) != 1000 || !slices.IsSorted(a) || a[0] < 0 || a[len(a)-1] >= 10*time.Second {
		t.Fatal("wrong count, order or range")
	}
	if firstHalf, _ := slices.BinarySearch(a, 5*time.Second); firstHalf < 430 || firstHalf > 570 {
		t.Fatalf("%d of 1000 arrivals in the first half", firstHalf)
	}
}
