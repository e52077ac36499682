package main

import (
	"fmt"
	"time"

	"twindrivers/internal/asm"
	"twindrivers/internal/core"
	"twindrivers/internal/cpu"
	"twindrivers/internal/cycles"
	"twindrivers/internal/drivermodel"
	"twindrivers/internal/isa"
	"twindrivers/internal/kernel"
	"twindrivers/internal/mem"
	"twindrivers/internal/netpath"
	"twindrivers/internal/rewrite"
	"twindrivers/internal/svm"
	"twindrivers/internal/telemetry"
	"twindrivers/internal/vswitch"
)

// The isolated layer kernels: host time of one layer's hot operation on a
// private machine, so a moved end-to-end number can be pinned to the layer
// that moved. Each runs a fixed operation count kernelReps times and
// reports the median.

type kernelDef struct {
	name, unit string
}

var kernelDefs = []kernelDef{
	{"cpu.call.host_ns_per_instr", "ns"},
	{"cycles.meter_add.host_ns_per_op", "ns"},
	{"cycles.mem_access.host_ns_per_op", "ns"},
	{"mem.load.host_ns_per_op", "ns"},
	{"mem.store.host_ns_per_op", "ns"},
	{"mem.write_bytes.host_ns_per_byte", "ns"},
	{"mem.read_bytes.host_ns_per_byte", "ns"},
	{"mem.copy.host_ns_per_byte", "ns"},
	{"mem.ring.push_pop.host_ns_per_op", "ns"},
	{"svm.stlb_hit.host_ns_per_op", "ns"},
	{"svm.stlb_miss.host_ns_per_op", "ns"},
	{"svm.gtlb_hit.host_ns_per_op", "ns"},
	{"svm.gtlb_miss.host_ns_per_op", "ns"},
	{"vswitch.classify.host_ns_per_op", "ns"},
	{"telemetry.record.host_ns_per_event", "ns"},
	{"asm.assemble.host_ms_per_driver", "ms"},
	{"rewrite.rewrite.host_ms_per_driver", "ms"},
	{"core.bringup.host_ms_1guest", "ms"},
	{"core.bringup.host_ms_64guest", "ms"},
	{"core.service_rings_q8.host_ns_per_pkt", "ns"},
	{"core.service_all_queues_q8.host_ns_per_pkt", "ns"},
}

const kernelReps = 3

// kernelSize sets how much work each kernel does. The full size is what
// the benchmark reports; the smoke size only proves every kernel runs.
type kernelSize struct {
	ops       int // simple operations per repetition
	copies    int // MTU-sized copies per repetition
	pages     int // distinct pages a cold-translation repetition touches
	queueReps int // staged backlogs the queue-service comparison drains
	perGuest  int // frames each of its 8 guests stages per backlog
}

var (
	fullKernels  = kernelSize{ops: 200_000, copies: 200, pages: 1500, queueReps: 6, perGuest: 16}
	smokeKernels = kernelSize{ops: 2_000, copies: 4, pages: 32, queueReps: 2, perGuest: 2}
)

// timeOps runs fn (which performs ops operations) kernelReps times and
// returns the median host nanoseconds per operation.
func timeOps(ops int, fn func() error) (float64, error) {
	var per []float64
	for i := 0; i < kernelReps; i++ {
		h0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		per = append(per, float64(time.Since(h0))/float64(ops))
	}
	return medianFloat(per), nil
}

const spinSource = `
spin:
	movl	4(%esp), %ecx
.Lspin:
	dec	%ecx
	jne	.Lspin
	ret
`

// runKernels measures every isolated kernel once per process.
func runKernels(size kernelSize) (metrics, error) {
	m := metrics{}
	put := func(name string, ops int, scale float64, fn func() error) error {
		v, err := timeOps(ops, fn)
		if err != nil {
			return fmt.Errorf("kernel %s: %w", name, err)
		}
		m.set(name, v*scale)
		return nil
	}

	// A flat private address space: data at 2 MiB, stack at 3 MiB.
	phys := mem.NewPhysical()
	as := mem.NewAddressSpace("kernel", phys, nil)
	const dataBase, stackBase, pages = 0x200000, 0x300000, 16
	as.MapRange(dataBase, phys.AllocFrames(mem.OwnerDom0, pages), pages)
	as.MapRange(stackBase, phys.AllocFrames(mem.OwnerDom0, pages), pages)
	meter := cycles.NewMeter()

	u, err := asm.Assemble(spinSource)
	if err != nil {
		return nil, err
	}
	im, err := asm.Layout("spin", u, 0x100000, dataBase, nil)
	if err != nil {
		return nil, err
	}
	c := cpu.New(as, meter)
	c.AddImage(im)
	c.Regs[isa.ESP] = stackBase + pages*mem.PageSize
	spin, _ := im.FuncEntry("spin")
	spins := size.ops / 2
	if err := put("cpu.call.host_ns_per_instr", 2*spins+2, 1, func() error {
		_, err := c.Call(spin, uint32(spins))
		return err
	}); err != nil {
		return nil, err
	}

	ops := size.ops
	_ = put("cycles.meter_add.host_ns_per_op", ops, 1, func() error {
		for i := 0; i < ops; i++ {
			meter.Add(3)
		}
		return nil
	})
	_ = put("cycles.mem_access.host_ns_per_op", ops, 1, func() error {
		for i := 0; i < ops; i++ {
			meter.MemAccess(dataBase + uint32(i*64)%(pages*mem.PageSize))
		}
		return nil
	})
	if err := put("mem.load.host_ns_per_op", ops, 1, func() error {
		for i := 0; i < ops; i++ {
			if _, err := as.Load(dataBase+uint32(i*4)%(pages*mem.PageSize), 4); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := put("mem.store.host_ns_per_op", ops, 1, func() error {
		for i := 0; i < ops; i++ {
			if err := as.Store(dataBase+uint32(i*4)%(pages*mem.PageSize), 4, uint32(i)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	frame := make([]byte, mtu)
	fillPayload(frame, 1)
	copies := size.copies
	if err := put("mem.write_bytes.host_ns_per_byte", copies*mtu, 1, func() error {
		for i := 0; i < copies; i++ {
			if err := as.WriteBytes(dataBase+uint32(i%8)*2048, frame); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := put("mem.read_bytes.host_ns_per_byte", copies*mtu, 1, func() error {
		for i := 0; i < copies; i++ {
			if _, err := as.ReadBytes(dataBase+uint32(i%8)*2048, mtu); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := put("mem.copy.host_ns_per_byte", 50*copies*mtu, 1, func() error {
		for i := 0; i < 50*copies; i++ {
			if err := mem.Copy(as, dataBase+0x8000+uint32(i%8)*2048, as, dataBase+uint32(i%8)*2048, mtu); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	ring, err := mem.InitRing(as, dataBase+0xF000, 32)
	if err != nil {
		return nil, err
	}
	if err := put("mem.ring.push_pop.host_ns_per_op", ops/4, 1, func() error {
		for i := 0; i < ops/8; i++ {
			if err := ring.Push(uint32(i), 64); err != nil {
				return err
			}
			if _, _, _, err := ring.Pop(); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	lane := telemetry.New(0).NewLane("kernel")
	_ = put("telemetry.record.host_ns_per_event", ops, 1, func() error {
		for i := 0; i < ops; i++ {
			lane.Record(meter, telemetry.EvHypercall, 1, uint64(i), 0)
		}
		return nil
	})

	sw := vswitch.New()
	macs := make([]vswitch.MAC, 64)
	for g := range macs {
		macs[g] = vswitch.MAC(netpathGuestMAC(g))
		sw.BindStatic(macs[g], mem.Owner(1+g))
	}
	_ = put("vswitch.classify.host_ns_per_op", ops, 1, func() error {
		for i := 0; i < ops; i++ {
			sw.Classify(mem.Owner(1+i%64), macs[i%64], macs[(i+7)%64])
		}
		return nil
	})

	if err := kernelTranslation(put, size); err != nil {
		return nil, err
	}
	if err := kernelDerivation(put); err != nil {
		return nil, err
	}
	if err := kernelQueues(m, size); err != nil {
		return nil, err
	}
	return m, nil
}

type putFn func(name string, ops int, scale float64, fn func() error) error

// kernelTranslation times the two software translation caches, warm and
// cold, on a private twin machine.
func kernelTranslation(put putFn, size kernelSize) error {
	m, tw, err := core.NewTwinMachine(1, 1, core.TwinConfig{})
	if err != nil {
		return err
	}
	meter := m.CPU.Meter
	coldPages := uint32(size.pages)
	rounds := size.ops / 2000
	// Each repetition needs pages the stlb has never seen.
	fresh := func() uint32 { return m.K.Alloc(coldPages * mem.PageSize) }
	base := fresh()
	if err := put("svm.stlb_miss.host_ns_per_op", size.pages, 1, func() error {
		for i := uint32(0); i < coldPages; i++ {
			if _, err := tw.SV.Translate(meter, base+i*mem.PageSize); err != nil {
				return err
			}
		}
		base = fresh()
		return nil
	}); err != nil {
		return err
	}
	warm := m.K.Alloc(mem.PageSize)
	if err := put("svm.stlb_hit.host_ns_per_op", size.pages*rounds, 1, func() error {
		for i := 0; i < size.pages*rounds; i++ {
			if _, err := tw.SV.Translate(meter, warm+uint32(i&0xFFC)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	gbase := m.HV.AllocHeap(m.DomU, coldPages*mem.PageSize)
	gtlb := svm.NewGuestTLB(m.HV, m.DomU)
	if err := put("svm.gtlb_miss.host_ns_per_op", size.pages, 1, func() error {
		gtlb.Invalidate()
		for i := uint32(0); i < coldPages; i++ {
			if _, err := gtlb.Translate(meter, gbase+i*mem.PageSize); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	return put("svm.gtlb_hit.host_ns_per_op", size.pages*rounds, 1, func() error {
		for i := 0; i < size.pages*rounds; i++ {
			if _, err := gtlb.Translate(meter, gbase+uint32(i&0xFFC)); err != nil {
				return err
			}
		}
		return nil
	})
}

// kernelDerivation times the offline pipeline a recovery puts on the hot
// path — assemble, rewrite — and whole-machine bring-up at 1 and 64 guests.
func kernelDerivation(put putFn) error {
	e1000, _ := drivermodel.Get("e1000")
	mq, _ := drivermodel.Get("mqnic")
	var unit *asm.Unit
	if err := put("asm.assemble.host_ms_per_driver", 1, 1e-6, func() error {
		u, err := e1000.Assemble(kernel.Equates())
		unit = u
		return err
	}); err != nil {
		return err
	}
	if err := put("rewrite.rewrite.host_ms_per_driver", 1, 1e-6, func() error {
		_, _, err := rewrite.Rewrite(unit, rewrite.Options{RejectPrivileged: true})
		return err
	}); err != nil {
		return err
	}
	if err := put("core.bringup.host_ms_1guest", 1, 1e-6, func() error {
		_, err := netpath.NewMultiModel(netpath.Twin, 1, 1, e1000, core.TwinConfig{})
		return err
	}); err != nil {
		return err
	}
	return put("core.bringup.host_ms_64guest", 1, 1e-6, func() error {
		_, err := netpath.NewMultiModel(netpath.Twin, 1, 64, mq, core.TwinConfig{})
		return err
	})
}

// kernelQueues is the measurement ROADMAP item 2(d) asks for: the same
// staged backlog on an 8-queue device serviced by the sequential sweep
// (ServiceRings) and by the goroutine-per-queue variant (ServiceAllQueues).
func kernelQueues(m metrics, size kernelSize) error {
	mq, _ := drivermodel.Get("mqnic")
	const guests = 8
	perGuest, reps := size.perGuest, size.queueReps
	service := func(name string, call func(*core.Twin, *core.NICDev) (map[mem.Owner]int, error)) error {
		p, err := netpath.NewMultiModel(netpath.Twin, 1, guests, mq, core.TwinConfig{})
		if err != nil {
			return err
		}
		d := p.M.Devs[0]
		d.Dev.SetOnTransmit(func([]byte) {})
		frames := make([][]byte, perGuest)
		for i := range frames {
			frames[i] = stamped(make([]byte, mtu), mtu, uint64(i), d.Dev.HWAddr(), externalMAC(9, 9, uint64(i)))
		}
		var per []float64
		for rep := 0; rep < reps; rep++ {
			for _, dom := range p.M.Guests {
				p.M.HV.Switch(dom)
				if n, err := p.T.StageTransmitBatch(dom, frames); err != nil || n != perGuest {
					return fmt.Errorf("staged %d of %d: %v", n, perGuest, err)
				}
			}
			h0 := time.Now()
			sent, err := call(p.T, d)
			ns := time.Since(h0)
			if err != nil {
				return err
			}
			total := 0
			for _, n := range sent {
				total += n
			}
			if total != guests*perGuest {
				return fmt.Errorf("serviced %d of %d frames", total, guests*perGuest)
			}
			if rep > 0 { // the first crossing warms the stlb
				per = append(per, float64(ns)/float64(total))
			}
		}
		m.set(name, medianFloat(per))
		return nil
	}
	if err := service("core.service_rings_q8.host_ns_per_pkt", func(t *core.Twin, d *core.NICDev) (map[mem.Owner]int, error) {
		return t.ServiceRings(d, 0)
	}); err != nil {
		return fmt.Errorf("kernel service_rings_q8: %w", err)
	}
	if err := service("core.service_all_queues_q8.host_ns_per_pkt", func(t *core.Twin, d *core.NICDev) (map[mem.Owner]int, error) {
		return t.ServiceAllQueues(d, 0)
	}); err != nil {
		return fmt.Errorf("kernel service_all_queues_q8: %w", err)
	}
	return nil
}
