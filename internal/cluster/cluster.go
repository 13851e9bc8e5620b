// Package cluster models the hardware environment of the Chaos evaluation
// (§8): a rack of machines, each with cores, a storage device and a NIC,
// joined by a full-bisection-bandwidth switch. Devices and NICs are FIFO
// bandwidth/latency resources in a discrete-event simulation; the switch is
// never a bottleneck, matching the paper's assumption that network switch
// bandwidth exceeds the aggregate storage bandwidth.
package cluster

import (
	"fmt"

	"chaos/internal/sim"
)

// Spec describes the hardware of every machine in a (homogeneous) cluster.
type Spec struct {
	// Machines is the cluster size (1..32 in the paper).
	Machines int
	// Cores is the CPU core count per machine (16 in the paper).
	Cores int
	// StorageBytesPerSec is the per-device bandwidth (SSD 400 MB/s, HDD
	// RAID0 200 MB/s in the paper).
	StorageBytesPerSec float64
	// StorageLatency is the fixed per-request device overhead.
	StorageLatency sim.Time
	// NICBytesPerSec is the per-machine link bandwidth (40 GigE = 5 GB/s,
	// 1 GigE = 125 MB/s).
	NICBytesPerSec float64
	// NetHopLatency is the one-way small-message latency, covering
	// propagation plus the 0MQ/TCP stack. Chunk transfers additionally
	// pay their size through the NICs. The paper measured the full
	// chunk round trip at roughly the storage service time (phi = 2,
	// §10.1); our modeled stack is somewhat faster (phi ~ 1.1), which
	// shifts the Figure 16 window but not the batching story — see
	// EXPERIMENTS.md.
	NetHopLatency sim.Time
	// LoopbackLatency is the message latency between co-located engines
	// (0MQ in-process transport).
	LoopbackLatency sim.Time
	// PerCoreNetBytesPerSec caps NIC throughput by available cores:
	// "Chaos requires a minimum number of cores to maintain good network
	// throughput" (§9.4).
	PerCoreNetBytesPerSec float64
	// EdgesPerCorePerSec is the per-core graph-processing rate; CPU is
	// never the bottleneck at full core counts.
	EdgesPerCorePerSec float64
}

// Byte-bandwidth constants for the paper's hardware.
const (
	MB = 1e6
	GB = 1e9
)

// SSD returns the paper's default configuration: m machines, 16 cores,
// 480 GB-class SSD at 400 MB/s, 40 GigE.
func SSD(m int) Spec {
	return Spec{
		Machines:              m,
		Cores:                 16,
		StorageBytesPerSec:    400 * MB,
		StorageLatency:        100 * sim.Microsecond,
		NICBytesPerSec:        5 * GB,
		NetHopLatency:         50 * sim.Microsecond,
		LoopbackLatency:       10 * sim.Microsecond,
		PerCoreNetBytesPerSec: 500 * MB,
		EdgesPerCorePerSec:    10e6,
	}
}

// ScaleLatencies multiplies every fixed latency in spec by f. Laboratory
// runs shrink the 4 MB chunk by some factor; scaling the latencies by the
// same factor preserves the paper's latency-to-service-time ratios (and so
// phi, utilization and protocol overheads) at small scale.
func ScaleLatencies(s Spec, f float64) Spec {
	s.StorageLatency = sim.Time(float64(s.StorageLatency) * f)
	s.NetHopLatency = sim.Time(float64(s.NetHopLatency) * f)
	s.LoopbackLatency = sim.Time(float64(s.LoopbackLatency) * f)
	return s
}

// HDD returns the SSD spec with the magnetic-disk RAID0 storage of §8
// (about half the SSD bandwidth, higher seek latency).
func HDD(m int) Spec {
	s := SSD(m)
	s.StorageBytesPerSec = 200 * MB
	s.StorageLatency = 4 * sim.Millisecond
	return s
}

// GigE1 returns spec with the 1 GigE network of Figure 12, where the
// network throughput is about a quarter of the disk bandwidth and becomes
// the bottleneck.
func GigE1(s Spec) Spec {
	s.NICBytesPerSec = 125 * MB
	return s
}

// WithCores returns spec with p cores per machine (Figure 10).
func WithCores(s Spec, p int) Spec {
	s.Cores = p
	return s
}

// effNICBandwidth is the core-limited NIC throughput.
func (s Spec) effNICBandwidth() float64 {
	coreCap := float64(s.Cores) * s.PerCoreNetBytesPerSec
	if coreCap > 0 && coreCap < s.NICBytesPerSec {
		return coreCap
	}
	return s.NICBytesPerSec
}

// Machine is one simulated host: a storage device, NIC ingress/egress
// queues and a CPU complex.
type Machine struct {
	ID     int
	Device *sim.Resource
	NICIn  *sim.Resource
	NICOut *sim.Resource
	// CPU serves "operations" (edges or updates) rather than bytes.
	CPU *sim.Resource
	// Failed marks a machine killed by fault injection.
	Failed bool
}

// Cluster instantiates a Spec inside a simulation environment.
type Cluster struct {
	Env      *sim.Env
	Spec     Spec
	Machines []*Machine
}

// New builds the machines of spec inside env.
func New(env *sim.Env, spec Spec) *Cluster {
	if spec.Machines <= 0 {
		panic(fmt.Sprintf("cluster: invalid machine count %d", spec.Machines))
	}
	c := &Cluster{Env: env, Spec: spec}
	nic := spec.effNICBandwidth()
	for i := 0; i < spec.Machines; i++ {
		c.Machines = append(c.Machines, &Machine{
			ID:     i,
			Device: sim.NewResource(env, fmt.Sprintf("m%d.dev", i), spec.StorageBytesPerSec, spec.StorageLatency),
			NICIn:  sim.NewResource(env, fmt.Sprintf("m%d.nic-in", i), nic, 0),
			NICOut: sim.NewResource(env, fmt.Sprintf("m%d.nic-out", i), nic, 0),
			CPU:    sim.NewResource(env, fmt.Sprintf("m%d.cpu", i), float64(spec.Cores)*spec.EdgesPerCorePerSec, 0),
		})
	}
	return c
}

// N returns the machine count.
func (c *Cluster) N() int { return c.Spec.Machines }

// Send models a message of the given size from machine src to mailbox mb on
// machine dst: egress NIC, one hop of latency, ingress NIC, delivery. The
// sender does not block. Messages between co-located engines skip the NIC
// and arrive after a small loopback delay (§7 runs both engines in one
// process).
func (c *Cluster) Send(src, dst int, bytes int64, mb *sim.Mailbox, msg any) {
	if src == dst {
		mb.PutAfter(c.Spec.LoopbackLatency, msg)
		return
	}
	out := c.Machines[src].NICOut
	in := c.Machines[dst].NICIn
	egressDone := out.Schedule(bytes, nil)
	arriveAt := egressDone + c.Spec.NetHopLatency
	c.Env.At(arriveAt, func() {
		in.Schedule(bytes, func() { mb.Put(msg) })
	})
}

// RoundTripLatency estimates the network round trip for a chunk request:
// the request hop plus the reply hop carrying the chunk through the NIC.
func (c *Cluster) RoundTripLatency(chunkBytes int64) sim.Time {
	transfer := sim.Time(0)
	if bw := c.Spec.effNICBandwidth(); bw > 0 {
		transfer = sim.Time(float64(chunkBytes) / bw * float64(sim.Second))
	}
	return 2*c.Spec.NetHopLatency + transfer
}

// StorageRequestLatency estimates the storage engine's service time for a
// chunk of the given size.
func (c *Cluster) StorageRequestLatency(chunkBytes int64) sim.Time {
	return c.Machines[0].Device.ServiceTime(chunkBytes)
}

// Phi returns the window amplification factor of Equation 3 for the given
// chunk size: phi = 1 + Rnetwork/Rstorage.
func (c *Cluster) Phi(chunkBytes int64) float64 {
	rs := float64(c.StorageRequestLatency(chunkBytes))
	if rs == 0 {
		return 1
	}
	return 1 + float64(c.RoundTripLatency(chunkBytes))/rs
}

// DeviceUtilization returns the mean utilization of all storage devices.
func (c *Cluster) DeviceUtilization() float64 {
	var u float64
	for _, m := range c.Machines {
		u += m.Device.Utilization()
	}
	return u / float64(c.N())
}

// BytesMoved returns total bytes served by all storage devices.
func (c *Cluster) BytesMoved() int64 {
	var b int64
	for _, m := range c.Machines {
		b += m.Device.Bytes()
	}
	return b
}
