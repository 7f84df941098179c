package netsim

import (
	"slices"
	"testing"
	"time"

	"repro/internal/transport"
)

// dropNth is a scripted fate: it loses exactly the nth packet from one
// address to another and delivers everything else once, with no jitter.
type dropNth struct {
	from, to int32
	nth      int
	seen     int
}

func (f *dropNth) copies(from, to int32, _ Profile, _ float64) int {
	if from != f.from || to != f.to {
		return 1
	}
	f.seen++
	if f.seen == f.nth {
		return 0
	}
	return 1
}

func (f *dropNth) jitter(int32, int32, Profile) time.Duration { return 0 }

// TestScriptedFateDropsThirdPacket: whatever a fate decides is what happens,
// through a copying send and a stable send alike. A fate that loses
// the third packet from A to B leaves B with packets 1, 2, 4, 5 and 6, in
// order, and leaves every other destination of the same fan-out with all six.
func TestScriptedFateDropsThirdPacket(t *testing.T) {
	for _, fanOut := range []bool{false, true} {
		r := newRig(t, Profile{Delay: time.Millisecond})
		count := counted(r.net)
		a := r.endpoint(t, "A")
		stable := a.(transport.StableSender)
		got := map[transport.Addr][]byte{}
		for _, name := range []transport.Addr{"B", "C", "D"} {
			r.endpoint(t, name).SetHandler(func(_ transport.Addr, p []byte) {
				got[name] = append(got[name], p[0])
			})
		}
		r.net.fate = &dropNth{from: r.net.ids["A"], to: r.net.ids["B"], nth: 3}
		for i := byte(1); i <= 6; i++ {
			p := []byte{i}
			if fanOut {
				// B sits in the middle, so the destinations either side of
				// the lost packet are sent before and after it.
				for _, d := range []transport.Addr{"C", "B", "D"} {
					if err := stable.SendStable(d, p); err != nil {
						t.Fatal(err)
					}
				}
			} else if err := a.Send("B", p); err != nil {
				t.Fatal(err)
			}
			r.clk.Advance(time.Millisecond)
		}
		r.clk.Drain(0)
		if want := []byte{1, 2, 4, 5, 6}; !slices.Equal(got["B"], want) {
			t.Errorf("fanOut=%v: B received %v, want %v", fanOut, got["B"], want)
		}
		if fanOut {
			for _, name := range []transport.Addr{"C", "D"} {
				if want := []byte{1, 2, 3, 4, 5, 6}; !slices.Equal(got[name], want) {
					t.Errorf("fan-out destination %s received %v, want %v", name, got[name], want)
				}
			}
		} else if len(got["C"])+len(got["D"]) != 0 {
			t.Errorf("single sends to B reached C %v and D %v", got["C"], got["D"])
		}
		if c := count(); c.dropped != 1 {
			t.Errorf("fanOut=%v: %d packets dropped, want 1", fanOut, c.dropped)
		}
	}
}
