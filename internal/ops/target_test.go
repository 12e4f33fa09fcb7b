package ops

import (
	"math"
	"testing"
)

func TestThreshold(t *testing.T) {
	tgt, err := Threshold(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if tgt.Lo != 0.9 || tgt.Hi != 1 {
		t.Errorf("Threshold(0.9) = %+v", tgt)
	}
	if _, err := Threshold(-0.1); err == nil {
		t.Error("want error for negative threshold")
	}
	if _, err := Threshold(1); err == nil {
		t.Error("want error for threshold 1")
	}
}

func TestRange(t *testing.T) {
	tgt, err := Range(0.2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if tgt.Lo != 0.2 || tgt.Hi != 0.3 {
		t.Errorf("Range = %+v", tgt)
	}
	for _, bad := range [][2]float64{{-0.1, 0.5}, {0.5, 1.1}, {0.6, 0.4}} {
		if _, err := Range(bad[0], bad[1]); err == nil {
			t.Errorf("Range(%v,%v): want error", bad[0], bad[1])
		}
	}
}

func TestContains(t *testing.T) {
	tgt, _ := Range(0.2, 0.3)
	tests := []struct {
		av   float64
		want bool
	}{
		{0.2, true},
		{0.25, true},
		{0.3, true},
		{0.19, false},
		{0.31, false},
		{0, false},
		{1, false},
	}
	for _, tc := range tests {
		if got := tgt.Contains(tc.av); got != tc.want {
			t.Errorf("Contains(%v) = %v, want %v", tc.av, got, tc.want)
		}
	}
}

func TestDistance(t *testing.T) {
	tgt, _ := Range(0.4, 0.6)
	tests := []struct {
		av   float64
		want float64
	}{
		{0.5, 0},
		{0.4, 0},
		{0.6, 0},
		{0.3, 0.1},
		{0.9, 0.3},
		{0, 0.4},
	}
	for _, tc := range tests {
		if got := tgt.Distance(tc.av); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Distance(%v) = %v, want %v", tc.av, got, tc.want)
		}
	}
}

func TestTargetString(t *testing.T) {
	thr, _ := Threshold(0.9)
	if thr.String() != "av>0.90" {
		t.Errorf("threshold String = %q", thr.String())
	}
	rng, _ := Range(0.85, 0.95)
	if rng.String() != "[0.85,0.95]" {
		t.Errorf("range String = %q", rng.String())
	}
}

func TestTargetValidate(t *testing.T) {
	if err := (Target{Lo: 0.2, Hi: 0.1}).Validate(); err == nil {
		t.Error("want error for inverted target")
	}
	if err := (Target{Lo: math.NaN(), Hi: 0.5}).Validate(); err == nil {
		t.Error("want error for NaN")
	}
	if err := (Target{Lo: 0.1, Hi: 0.5}).Validate(); err != nil {
		t.Errorf("valid target rejected: %v", err)
	}
}

func TestPolicyModeStrings(t *testing.T) {
	if Greedy.String() != "greedy" || RetriedGreedy.String() != "retried-greedy" || Annealing.String() != "simulated-annealing" {
		t.Error("policy strings wrong")
	}
	if Flood.String() != "flood" || Gossip.String() != "gossip" {
		t.Error("mode strings wrong")
	}
	if Policy(0).String() != "Policy(0)" || Mode(0).String() != "Mode(0)" {
		t.Error("unknown enum strings wrong")
	}
}

func TestMsgIDString(t *testing.T) {
	id := MsgID{Origin: "10.0.0.1:4000", Seq: 7}
	if id.String() != "10.0.0.1:4000#7" {
		t.Errorf("MsgID String = %q", id.String())
	}
}

func TestOutcomeString(t *testing.T) {
	if OutcomeDelivered.String() != "delivered" ||
		OutcomeTTLExpired.String() != "ttl-expired" ||
		OutcomeRetryExpired.String() != "retry-expired" ||
		OutcomePending.String() != "pending" {
		t.Error("outcome strings wrong")
	}
}
