package trace

import (
	"testing"
	"time"

	"avmem/internal/ids"
)

func mustNew(t *testing.T, hosts int, epochs int) *Trace {
	t.Helper()
	hs := make([]ids.NodeID, hosts)
	for i := range hs {
		hs[i] = ids.Synthetic(i)
	}
	tr, err := New(hs, epochs, DefaultEpoch)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, 10, 0); err == nil {
		t.Error("want error for no hosts")
	}
	if _, err := New([]ids.NodeID{"a"}, 0, 0); err == nil {
		t.Error("want error for zero epochs")
	}
	if _, err := New([]ids.NodeID{"a", "a"}, 10, 0); err == nil {
		t.Error("want error for duplicate hosts")
	}
	if _, err := New([]ids.NodeID{""}, 10, 0); err == nil {
		t.Error("want error for nil host id")
	}
}

func TestDefaultEpochSelected(t *testing.T) {
	tr, err := New([]ids.NodeID{"a"}, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.EpochLength() != DefaultEpoch {
		t.Errorf("EpochLength = %v, want %v", tr.EpochLength(), DefaultEpoch)
	}
}

func TestSetUpAndUp(t *testing.T) {
	tr := mustNew(t, 3, 100)
	if tr.Up(1, 50) {
		t.Error("fresh trace should be offline")
	}
	tr.SetUp(1, 50, true)
	if !tr.Up(1, 50) {
		t.Error("Up after SetUp(true) = false")
	}
	if tr.Up(1, 49) || tr.Up(1, 51) || tr.Up(0, 50) || tr.Up(2, 50) {
		t.Error("SetUp leaked to neighboring cells")
	}
	tr.SetUp(1, 50, false)
	if tr.Up(1, 50) {
		t.Error("Up after SetUp(false) = true")
	}
}

func TestBitBoundaries(t *testing.T) {
	tr := mustNew(t, 2, 200)
	// Exercise word boundaries at 63/64/127/128.
	for _, e := range []int{0, 63, 64, 127, 128, 199} {
		tr.SetUp(1, e, true)
	}
	for _, e := range []int{0, 63, 64, 127, 128, 199} {
		if !tr.Up(1, e) {
			t.Errorf("epoch %d not set", e)
		}
	}
	if tr.Up(1, 1) || tr.Up(1, 62) || tr.Up(1, 65) || tr.Up(1, 129) {
		t.Error("unexpected epochs set")
	}
	if tr.Up(0, 63) {
		t.Error("host 0 contaminated")
	}
}

func TestBoundsPanic(t *testing.T) {
	tr := mustNew(t, 2, 10)
	for _, fn := range []func(){
		func() { tr.Up(-1, 0) },
		func() { tr.Up(2, 0) },
		func() { tr.Up(0, -1) },
		func() { tr.Up(0, 10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("want panic for out-of-range access")
				}
			}()
			fn()
		}()
	}
}

func TestHostLookup(t *testing.T) {
	tr := mustNew(t, 5, 10)
	for h := 0; h < 5; h++ {
		id := tr.HostID(h)
		if tr.HostIndex(id) != h {
			t.Errorf("HostIndex(HostID(%d)) = %d", h, tr.HostIndex(id))
		}
	}
	if tr.HostIndex("unknown") != -1 {
		t.Error("HostIndex(unknown) != -1")
	}
	idsCopy := tr.HostIDs()
	if len(idsCopy) != 5 {
		t.Fatalf("HostIDs len = %d", len(idsCopy))
	}
	idsCopy[0] = "mutated"
	if tr.HostID(0) == "mutated" {
		t.Error("HostIDs returned internal slice")
	}
}

func TestEpochAt(t *testing.T) {
	tr := mustNew(t, 1, 10) // 10 epochs of 20 min
	tests := []struct {
		at   time.Duration
		want int
	}{
		{-time.Minute, 0},
		{0, 0},
		{19 * time.Minute, 0},
		{20 * time.Minute, 1},
		{199 * time.Minute, 9},
		{500 * time.Minute, 9}, // clamped
	}
	for _, tc := range tests {
		if got := tr.EpochAt(tc.at); got != tc.want {
			t.Errorf("EpochAt(%v) = %d, want %d", tc.at, got, tc.want)
		}
	}
}

func TestUpAt(t *testing.T) {
	tr := mustNew(t, 1, 10)
	tr.SetUp(0, 3, true)
	if !tr.UpAt(0, 61*time.Minute) {
		t.Error("UpAt inside epoch 3 = false")
	}
	if tr.UpAt(0, 30*time.Minute) {
		t.Error("UpAt inside epoch 1 = true")
	}
}

func TestOnlineCountAndHosts(t *testing.T) {
	tr := mustNew(t, 4, 5)
	tr.SetUp(0, 2, true)
	tr.SetUp(3, 2, true)
	if got := tr.OnlineCount(2); got != 2 {
		t.Errorf("OnlineCount = %d, want 2", got)
	}
	hosts := tr.OnlineHosts(2)
	if len(hosts) != 2 || hosts[0] != 0 || hosts[1] != 3 {
		t.Errorf("OnlineHosts = %v, want [0 3]", hosts)
	}
	if got := tr.OnlineCount(0); got != 0 {
		t.Errorf("OnlineCount(0) = %d, want 0", got)
	}
}

func TestAvailability(t *testing.T) {
	tr := mustNew(t, 1, 10)
	for e := 0; e < 5; e++ {
		tr.SetUp(0, e, true)
	}
	if got := tr.Availability(0, 9); got != 0.5 {
		t.Errorf("Availability(0,9) = %v, want 0.5", got)
	}
	if got := tr.Availability(0, 4); got != 1.0 {
		t.Errorf("Availability(0,4) = %v, want 1", got)
	}
	if got := tr.Availability(0, 100); got != 0.5 {
		t.Errorf("Availability clamps upto: got %v", got)
	}
	if got := tr.Availability(0, -1); got != 0 {
		t.Errorf("Availability(upto<0) = %v, want 0", got)
	}
}

func TestAvailabilities(t *testing.T) {
	tr := mustNew(t, 3, 4)
	tr.SetUp(1, 0, true)
	tr.SetUp(1, 1, true)
	av := tr.Availabilities(3)
	if av[0] != 0 || av[1] != 0.5 || av[2] != 0 {
		t.Errorf("Availabilities = %v", av)
	}
}

func TestMeanOnline(t *testing.T) {
	tr := mustNew(t, 2, 4)
	tr.SetUp(0, 0, true)
	tr.SetUp(0, 1, true)
	tr.SetUp(1, 0, true)
	// online counts: 2,1,0,0 → mean 0.75
	if got := tr.MeanOnline(); got != 0.75 {
		t.Errorf("MeanOnline = %v, want 0.75", got)
	}
}

func TestDuration(t *testing.T) {
	tr := mustNew(t, 1, 504)
	if got := tr.Duration(); got != 7*24*time.Hour {
		t.Errorf("Duration = %v, want 168h", got)
	}
}

func TestSmoothedAvailability(t *testing.T) {
	tr := mustNew(t, 2, 10)
	for e := 0; e < 5; e++ {
		tr.SetUp(0, e, true)
	}
	// Host 0: 5/10 up → (5+1)/(10+2) = 0.5.
	if got := tr.SmoothedAvailability(0, 9); got != 0.5 {
		t.Errorf("SmoothedAvailability = %v, want 0.5", got)
	}
	// Host 1 always off: 1/12, never exactly 0.
	if got := tr.SmoothedAvailability(1, 9); got != 1.0/12.0 {
		t.Errorf("always-off smoothed = %v, want 1/12", got)
	}
	// No observations yet: uninformative prior.
	if got := tr.SmoothedAvailability(0, -1); got != 0.5 {
		t.Errorf("prior = %v, want 0.5", got)
	}
	// Clamps upto.
	if got := tr.SmoothedAvailability(0, 99); got != 0.5 {
		t.Errorf("clamped = %v, want 0.5", got)
	}
	// Early always-on host: (1+1)/(1+2) = 2/3, not 1.0.
	if got := tr.SmoothedAvailability(0, 0); got != 2.0/3.0 {
		t.Errorf("early smoothed = %v, want 2/3", got)
	}
}

func TestSmoothedAvailabilities(t *testing.T) {
	tr := mustNew(t, 3, 4)
	tr.SetUp(1, 0, true)
	tr.SetUp(1, 1, true)
	av := tr.SmoothedAvailabilities(3)
	if av[0] != 1.0/6.0 || av[1] != 0.5 || av[2] != 1.0/6.0 {
		t.Errorf("SmoothedAvailabilities = %v", av)
	}
}
