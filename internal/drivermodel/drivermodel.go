// Package drivermodel is the abstraction that makes the derivation
// pipeline driver-generic: everything the framework needs to know about a
// NIC driver/device pair — its entry-symbol set, register-map equates,
// ring/descriptor geometry, probe signature and device factory — lives in
// a Model instead of being hardwired to one driver's symbol names.
//
// The paper's central claim is that ANY guest NIC driver can be rewritten
// into a safe hypervisor driver; core, recovery and the benchmark harness
// consume a Model so that claim is exercised, not assumed. A backend
// registers itself at init time; the shared conformance suite and the
// differential harness run over every registered backend, so adding a
// third driver automatically puts it under the same contract.
package drivermodel

import (
	"fmt"
	"sort"

	"twindrivers/internal/asm"
	"twindrivers/internal/mem"
)

// Device is the behaviour the framework needs from a simulated NIC,
// independent of its register layout or descriptor format. Both device
// models (the e1000-class controller in internal/nic, the rtl8139-class
// controller in internal/rtl) implement it.
type Device interface {
	mem.MMIO

	// Inject delivers a received packet into the device's receive
	// machinery; false means the packet was missed (no buffer space).
	Inject(pkt []byte) bool

	// SetOnTransmit installs the wire: fn receives every transmitted
	// packet's bytes. The slice is the device's own buffer, valid only
	// until fn returns; a wire that keeps frames copies them.
	SetOnTransmit(fn func(pkt []byte))

	// HWAddr returns the device's current station address.
	HWAddr() [6]byte

	// Counters exposes the statistics a driver watchdog harvests:
	// good packets transmitted, good packets received, missed packets.
	Counters() (tx, rx, missed uint32)

	// LinkUp reports link state.
	LinkUp() bool

	// PendingInterrupt reports whether an unmasked cause is latched.
	PendingInterrupt() bool
}

// QueueCounters is the optional multi-queue statistics surface: a device
// with more than one transmit queue exposes per-queue good-packet counts
// so steering stability is observable. Single-queue devices simply don't
// implement it; callers fall back to Counters() as a one-queue view.
type QueueCounters interface {
	// QueueTxCounts returns good packets transmitted per TX queue.
	QueueTxCounts() []uint64
}

// Entries is a driver's entry-symbol set: the function names the framework
// invokes on the VM instance (probe/open/close/stats via dom0) and resolves
// in the derived hypervisor instance (xmit/intr).
type Entries struct {
	Probe    string
	Open     string
	Close    string
	Xmit     string
	Intr     string
	Stats    string
	Watchdog string
}

// Geometry describes a model's ring/descriptor layout — informational for
// reports and asserted by the model's own tests, not interpreted by core.
type Geometry struct {
	// TxSlots and RxSlots are the transmit/receive capacities in device
	// units (descriptors for the e1000, TX slots / ring bytes for the
	// rtl8139).
	TxSlots int
	RxSlots int

	// DescBytes is the descriptor size; 0 for a byte-granular ring.
	DescBytes int

	// RxByteRing is true when receive uses a single contiguous byte ring
	// (rtl8139-style) instead of a descriptor ring.
	RxByteRing bool
}

// Model is one NIC backend: a guest driver plus the device it drives.
type Model struct {
	// Name identifies the backend ("e1000", "rtl8139").
	Name string

	// Source is the guest driver in the simulated machine's assembly.
	Source string

	// AdapterSize is the byte size of the driver's private adapter
	// structure (netdev->priv allocation).
	AdapterSize uint32

	// MMIOPages sizes the device register BAR in pages.
	MMIOPages int

	// Equates are the device-register (and driver-private) constants the
	// driver source needs beyond the kernel's structure-layout equates.
	Equates map[string]int32

	// Entries is the entry-symbol set.
	Entries Entries

	// Geometry documents the ring/descriptor layout.
	Geometry Geometry

	// Queues is the number of independent TX/RX queue pairs the device
	// exposes (0 or 1 = classic single-queue device). The per-queue
	// register and descriptor layout is the model's own concern — the
	// framework only shards work across this many service queues and
	// tags each staged frame with its queue index (SKB_QUEUE).
	Queues int

	// TxHeaderSplit is the transmit scatter/gather policy: the number of
	// frame bytes the hypervisor copies into the pooled dom0 sk_buff
	// before chaining the rest of the guest packet as a page fragment.
	// 0 means the device has no scatter/gather (rtl8139-class) and the
	// hypervisor must copy the whole frame linear.
	TxHeaderSplit int

	// NewDevice builds one simulated controller of this model.
	NewDevice func(name string, phys *mem.Physical, macLast byte) Device

	// ProbeArgs builds the argument list of the driver's probe entry
	// point for a device instance. Models differ in probe arity (the
	// rtl8139 probe takes its RX ring size as a fourth argument), so the
	// configuration log records the concrete argument list per event and
	// replays exactly those words.
	ProbeArgs func(netdev, mmioPhys, irq uint32) []uint32
}

// Assemble parses the model's driver source with the kernel structure
// equates merged with the model's device-register equates. A duplicate
// name with a conflicting value is an error: the driver and the framework
// must not disagree about a constant.
func (m *Model) Assemble(kernelEquates map[string]int32) (*asm.Unit, error) {
	merged := make(map[string]int32, len(kernelEquates)+len(m.Equates))
	for k, v := range kernelEquates {
		merged[k] = v
	}
	for k, v := range m.Equates {
		if prev, ok := merged[k]; ok && prev != v {
			return nil, fmt.Errorf("drivermodel: %s: equate %q conflicts (%d vs %d)", m.Name, k, prev, v)
		}
		merged[k] = v
	}
	u, err := asm.AssembleWithEquates(m.Source, merged)
	if err != nil {
		return nil, fmt.Errorf("drivermodel: assemble %s driver: %w", m.Name, err)
	}
	return u, nil
}

var registry = map[string]*Model{}

// Register adds a backend to the registry; driver packages call it from
// init so every linked backend is discoverable by name.
func Register(m *Model) {
	if m.Name == "" {
		panic("drivermodel: register of unnamed model")
	}
	if _, dup := registry[m.Name]; dup {
		panic("drivermodel: duplicate model " + m.Name)
	}
	registry[m.Name] = m
}

// Get resolves a backend by name.
func Get(name string) (*Model, bool) {
	m, ok := registry[name]
	return m, ok
}

// Names lists every registered backend, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// All returns every registered backend in Names order.
func All() []*Model {
	var out []*Model
	for _, n := range Names() {
		out = append(out, registry[n])
	}
	return out
}
