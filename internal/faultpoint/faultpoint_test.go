package faultpoint

import (
	"errors"
	"testing"
	"time"
)

func TestDisarmedCheckIsNil(t *testing.T) {
	Disarm()
	for i := 0; i < 100; i++ {
		if err := Check("anything"); err != nil {
			t.Fatalf("disarmed Check returned %v", err)
		}
	}
}

func TestSkipCountWindow(t *testing.T) {
	Arm(&Schedule{Rules: []Rule{{Point: "p", Skip: 2, Count: 3}}})
	defer Disarm()
	var got []bool
	for i := 0; i < 8; i++ {
		got = append(got, Check("p") != nil)
	}
	want := []bool{false, false, true, true, true, false, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hit %d: fired=%v want %v (all: %v)", i, got[i], want[i], got)
		}
	}
	if f := Fired(); len(f) != 3 {
		t.Fatalf("Fired() = %v, want 3 entries", f)
	}
}

func TestUnlimitedCount(t *testing.T) {
	Arm(&Schedule{Rules: []Rule{{Point: "p"}}})
	defer Disarm()
	for i := 0; i < 5; i++ {
		if !errors.Is(Check("p"), ErrInjected) {
			t.Fatalf("hit %d: want ErrInjected", i)
		}
	}
	if Check("other") != nil {
		t.Fatal("unrelated point fired")
	}
}

func TestProbDeterministic(t *testing.T) {
	run := func() []bool {
		Arm(&Schedule{Seed: 42, Rules: []Rule{{Point: "p", Prob: 0.5}}})
		defer Disarm()
		var out []bool
		for i := 0; i < 64; i++ {
			out = append(out, Check("p") != nil)
		}
		return out
	}
	a, b := run(), run()
	fires := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("hit %d differs across identical seeded runs", i)
		}
		if a[i] {
			fires++
		}
	}
	if fires == 0 || fires == len(a) {
		t.Fatalf("prob=0.5 fired %d of %d hits; want a mix", fires, len(a))
	}
	// A different seed must (overwhelmingly) produce a different pattern.
	Arm(&Schedule{Seed: 43, Rules: []Rule{{Point: "p", Prob: 0.5}}})
	defer Disarm()
	same := true
	for i := 0; i < 64; i++ {
		if (Check("p") != nil) != a[i] {
			same = false
		}
	}
	if same {
		t.Fatal("seed 42 and 43 produced identical fire patterns")
	}
}

func TestDelayOnly(t *testing.T) {
	Arm(&Schedule{Rules: []Rule{{Point: "p", Delay: 5 * time.Millisecond, NoError: true, Count: 1}}})
	defer Disarm()
	start := time.Now()
	if err := Check("p"); err != nil {
		t.Fatalf("delay-only rule returned %v", err)
	}
	if d := time.Since(start); d < 4*time.Millisecond {
		t.Fatalf("delay-only rule slept %v, want >= ~5ms", d)
	}
}

func TestParseScheduleRoundTrip(t *testing.T) {
	spec := "seed=42;wal.sync:count=1,skip=2;http.client:delay=10ms,prob=0.5;wal.snapshot:err=no"
	s, err := ParseSchedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 42 || len(s.Rules) != 3 {
		t.Fatalf("parsed %+v", s)
	}
	if s.Rules[0] != (Rule{Point: "wal.sync", Skip: 2, Count: 1}) {
		t.Fatalf("rule 0: %+v", s.Rules[0])
	}
	if s.Rules[1] != (Rule{Point: "http.client", Prob: 0.5, Delay: 10 * time.Millisecond}) {
		t.Fatalf("rule 1: %+v", s.Rules[1])
	}
	if !s.Rules[2].NoError {
		t.Fatalf("rule 2: %+v", s.Rules[2])
	}
	if got := s.String(); got != spec {
		t.Fatalf("String() = %q, want %q", got, spec)
	}
}

func TestParseScheduleErrors(t *testing.T) {
	for _, spec := range []string{
		"", "seed=42", "p:prob=1.5", "p:skip=-1", "p:delay=bogus",
		"p:err=maybe", "p:mystery=1", "p:skip", ":skip=1",
	} {
		if _, err := ParseSchedule(spec); err == nil {
			t.Errorf("ParseSchedule(%q) = nil error, want failure", spec)
		}
	}
}

// FuzzParseSchedule asserts the parser never panics and that every
// accepted schedule round-trips: String() re-parses to an equivalent
// schedule (same seed, same rules).
func FuzzParseSchedule(f *testing.F) {
	f.Add("seed=42;wal.sync:skip=2,count=1")
	f.Add("http.client:prob=0.5,delay=10ms;wal.snapshot:err=no")
	f.Add("p:count=0")
	f.Add("seed=0;a:skip=1;b:prob=1")
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSchedule(spec)
		if err != nil {
			return
		}
		rt, err := ParseSchedule(s.String())
		if err != nil {
			t.Fatalf("round-trip parse of %q (from %q) failed: %v", s.String(), spec, err)
		}
		if rt.Seed != s.Seed || len(rt.Rules) != len(s.Rules) {
			t.Fatalf("round trip changed schedule: %+v vs %+v", s, rt)
		}
		for i := range s.Rules {
			if s.Rules[i] != rt.Rules[i] {
				t.Fatalf("rule %d changed: %+v vs %+v", i, s.Rules[i], rt.Rules[i])
			}
		}
	})
}
