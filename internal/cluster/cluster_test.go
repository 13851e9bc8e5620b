package cluster

import (
	"testing"

	"chaos/internal/sim"
)

func TestSpecPresets(t *testing.T) {
	s := SSD(32)
	if s.Machines != 32 || s.Cores != 16 {
		t.Errorf("SSD preset wrong: %+v", s)
	}
	h := HDD(4)
	if h.StorageBytesPerSec >= s.StorageBytesPerSec {
		t.Error("HDD should be slower than SSD")
	}
	g := GigE1(s)
	if g.NICBytesPerSec >= s.NICBytesPerSec {
		t.Error("1GigE should be slower than 40GigE")
	}
	if g.NICBytesPerSec >= h.StorageBytesPerSec {
		t.Error("1GigE must be slower than disk bandwidth (the Figure 12 premise)")
	}
}

func TestEffNICBandwidthCoreLimited(t *testing.T) {
	s := SSD(1)
	full := s.effNICBandwidth()
	s8 := WithCores(s, 8)
	if s8.effNICBandwidth() >= full {
		t.Errorf("8 cores should limit NIC: %g vs %g", s8.effNICBandwidth(), full)
	}
	if s8.Cores != 8 {
		t.Error("WithCores did not set cores")
	}
}

func TestSendChargesNetworkPath(t *testing.T) {
	env := sim.NewEnv(1)
	c := New(env, SSD(2))
	mb := sim.NewMailbox(env, "in")
	var at sim.Time
	env.Spawn("recv", func(p *sim.Proc) {
		mb.Recv(p)
		at = p.Now()
	})
	c.Send(0, 1, 5*GB, mb, "big") // 1s egress + hop + 1s ingress
	env.Run()
	want := 2*sim.Second + c.Spec.NetHopLatency
	if at != want {
		t.Errorf("arrival at %v, want %v", at, want)
	}
	if c.Machines[0].NICOut.Bytes() != 5*GB || c.Machines[1].NICIn.Bytes() != 5*GB {
		t.Error("NIC accounting wrong")
	}
}

func TestLoopbackSkipsNIC(t *testing.T) {
	env := sim.NewEnv(1)
	c := New(env, SSD(2))
	mb := sim.NewMailbox(env, "in")
	env.Spawn("recv", func(p *sim.Proc) { mb.Recv(p) })
	c.Send(1, 1, 1<<30, mb, "local")
	env.Run()
	if c.Machines[1].NICIn.Bytes() != 0 || c.Machines[1].NICOut.Bytes() != 0 {
		t.Error("loopback should not touch the NIC")
	}
}

func TestSendsSerializeOnNIC(t *testing.T) {
	env := sim.NewEnv(1)
	c := New(env, SSD(2))
	mb := sim.NewMailbox(env, "in")
	var times []sim.Time
	env.Spawn("recv", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			mb.Recv(p)
			times = append(times, p.Now())
		}
	})
	c.Send(0, 1, 5*GB, mb, 1)
	c.Send(0, 1, 5*GB, mb, 2)
	env.Run()
	if len(times) != 2 {
		t.Fatalf("got %d messages", len(times))
	}
	if times[1]-times[0] < sim.Second {
		t.Errorf("second message arrived %v after first; NIC egress should serialize by 1s", times[1]-times[0])
	}
}

func TestPhiAboveOneForPaperConfig(t *testing.T) {
	// The window amplification must exceed 1 (requests spend real time
	// in the network) but stay small; the paper measured phi = 2 on its
	// stack, ours models a faster one (about 1.1).
	env := sim.NewEnv(1)
	c := New(env, SSD(32))
	phi := c.Phi(4 << 20)
	if phi <= 1.0 || phi > 2.5 {
		t.Errorf("phi = %.2f, want in (1, 2.5]", phi)
	}
	// Smaller chunks raise phi: fixed latencies loom larger.
	if c.Phi(4<<10) <= phi {
		t.Error("phi should grow as chunks shrink")
	}
}

func TestDeviceUtilizationAveraged(t *testing.T) {
	env := sim.NewEnv(1)
	c := New(env, SSD(2))
	env.Spawn("u", func(p *sim.Proc) {
		c.Machines[0].Device.Use(p, int64(400*MB)) // ~1s busy
		p.Sleep(sim.Second)                        // total 2s elapsed
	})
	env.Run()
	u := c.DeviceUtilization()
	if u < 0.2 || u > 0.3 {
		t.Errorf("mean utilization %.2f, want about 0.25 (one of two devices busy half the time)", u)
	}
	if c.BytesMoved() != int64(400*MB) {
		t.Errorf("bytes moved %d", c.BytesMoved())
	}
}
