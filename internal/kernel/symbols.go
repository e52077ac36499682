package kernel

import (
	"fmt"

	"twindrivers/internal/cost"
	"twindrivers/internal/cpu"
	"twindrivers/internal/cycles"
	"twindrivers/internal/mem"
	"twindrivers/internal/xen"
)

// registerSymbols installs the driver support routine table. The names
// follow the Linux 2.6.18 driver API the paper's e1000 driver uses; the
// ten routines of Table 1 carry real behaviour (they run on the fast
// path), as do the initialisation-time allocators; the long tail of
// management helpers is priced but behaviourally trivial — exactly the
// part of the support library TwinDrivers avoids reimplementing in the
// hypervisor.
func (k *Kernel) registerSymbols() {
	// --- Table 1: the fast-path ten -------------------------------------
	k.bind("netdev_alloc_skb", cost.SkbAlloc, func(c *cpu.CPU) (uint32, error) {
		return k.AllocSkb(arg(c, 0)), nil
	})
	k.bind("dev_kfree_skb_any", cost.SkbFree, func(c *cpu.CPU) (uint32, error) {
		k.FreeSkb(arg(c, 0))
		return 0, nil
	})
	k.bind("netif_rx", cost.NetifRx, func(c *cpu.CPU) (uint32, error) {
		skb := arg(c, 0)
		if k.OnNetifRx != nil {
			k.OnNetifRx(skb)
		} else {
			k.Backlog = append(k.Backlog, skb)
		}
		return 0, nil
	})
	k.bind("dma_map_single", cost.DmaMap, func(c *cpu.CPU) (uint32, error) {
		vaddr := arg(c, 1)
		pa, ok := k.Dom.AS.Translate(vaddr)
		if !ok {
			return 0, fmt.Errorf("kernel: dma_map_single of unmapped %#x", vaddr)
		}
		return pa, nil
	})
	k.bind("dma_map_page", cost.DmaMap, func(c *cpu.CPU) (uint32, error) {
		page, off := arg(c, 1), arg(c, 2)
		pa, ok := k.Dom.AS.Translate(page + off)
		if !ok {
			// Pages below the kernel split belong to guests (chained
			// zero-copy fragments). dom0 resolves them through its
			// physical-to-machine table — the paper's footnote 4: "the
			// DMA mapping driver functions can be even invoked using
			// upcalls and would still work correctly".
			if page < xen.Dom0KernelBase {
				for _, d := range k.HV.Domains {
					if d.ID == k.Dom.ID {
						continue
					}
					if gpa, gok := d.AS.Translate(page + off); gok {
						return gpa, nil
					}
				}
			}
			return 0, fmt.Errorf("kernel: dma_map_page of unmapped %#x", page+off)
		}
		return pa, nil
	})
	k.bind("dma_unmap_single", cost.DmaUnmap, nil)
	k.bind("dma_unmap_page", cost.DmaUnmap, nil)
	k.bind("spin_trylock", cost.SpinLock, func(c *cpu.CPU) (uint32, error) {
		lock := arg(c, 0)
		if k.load(lock) != 0 {
			return 0, nil
		}
		k.store(lock, 1)
		return 1, nil
	})
	k.bind("spin_unlock_irqrestore", cost.SpinUnlock, func(c *cpu.CPU) (uint32, error) {
		k.store(arg(c, 0), 0)
		k.Dom.VirtIRQMasked = false
		return 0, nil
	})
	k.bind("eth_type_trans", cost.EthTypeTrans, func(c *cpu.CPU) (uint32, error) {
		return ethTypeTrans(k.Dom.AS, arg(c, 0), arg(c, 1)), nil
	})

	// --- Locking variants ------------------------------------------------
	k.bind("spin_lock", cost.SpinLock, func(c *cpu.CPU) (uint32, error) {
		k.store(arg(c, 0), 1)
		return 0, nil
	})
	k.bind("spin_unlock", cost.SpinUnlock, func(c *cpu.CPU) (uint32, error) {
		k.store(arg(c, 0), 0)
		return 0, nil
	})
	k.bind("spin_lock_irqsave", cost.SpinLock, func(c *cpu.CPU) (uint32, error) {
		flags := uint32(0)
		if k.Dom.VirtIRQMasked {
			flags = 1
		}
		k.Dom.VirtIRQMasked = true
		k.store(arg(c, 0), 1)
		return flags, nil
	})
	k.bind("spin_lock_init", cost.MiscSupport, func(c *cpu.CPU) (uint32, error) {
		k.store(arg(c, 0), 0)
		return 0, nil
	})
	k.bind("local_irq_save", cost.MiscSupport, func(c *cpu.CPU) (uint32, error) {
		flags := uint32(0)
		if k.Dom.VirtIRQMasked {
			flags = 1
		}
		k.Dom.VirtIRQMasked = true
		return flags, nil
	})
	k.bind("local_irq_restore", cost.MiscSupport, func(c *cpu.CPU) (uint32, error) {
		k.Dom.VirtIRQMasked = arg(c, 0) != 0
		return 0, nil
	})

	// --- Memory management -----------------------------------------------
	k.bind("kmalloc", cost.KmallocCost, func(c *cpu.CPU) (uint32, error) {
		return k.Alloc(arg(c, 0)), nil
	})
	k.bind("kzalloc", cost.KmallocCost, func(c *cpu.CPU) (uint32, error) {
		n := arg(c, 0)
		a := k.Alloc(n)
		for i := uint32(0); i < n; i += 4 {
			k.store(a+i, 0)
		}
		return a, nil
	})
	k.bind("kfree", cost.MiscSupport, nil)
	k.bind("vmalloc", cost.KmallocCost, func(c *cpu.CPU) (uint32, error) {
		return k.Alloc(arg(c, 0)), nil
	})
	k.bind("vfree", cost.MiscSupport, nil)
	k.bind("dma_alloc_coherent", cost.KmallocCost, func(c *cpu.CPU) (uint32, error) {
		// args: size, *dma_handle. Page-aligned allocation; the physical
		// (machine) address is stored through the handle pointer.
		size := arg(c, 0)
		handle := arg(c, 1)
		pages := (size + mem.PageSize - 1) / mem.PageSize
		va := k.Alloc(pages*mem.PageSize + mem.PageSize)
		va = (va + mem.PageSize - 1) &^ uint32(mem.PageMask)
		pa, ok := k.Dom.AS.Translate(va)
		if !ok {
			return 0, fmt.Errorf("kernel: dma_alloc_coherent: unmapped heap at %#x", va)
		}
		k.store(handle, pa)
		return va, nil
	})
	k.bind("dma_free_coherent", cost.MiscSupport, nil)
	k.bind("get_free_page", cost.KmallocCost, func(c *cpu.CPU) (uint32, error) {
		va := k.Alloc(2 * mem.PageSize)
		return (va + mem.PageSize - 1) &^ uint32(mem.PageMask), nil
	})
	k.bind("memcpy_kernel", cost.MiscSupport, func(c *cpu.CPU) (uint32, error) {
		dst, src, n := arg(c, 0), arg(c, 1), arg(c, 2)
		c.Meter.AddTo(cycles.CompDom0, uint64(n))
		return dst, mem.Copy(k.Dom.AS, dst, k.Dom.AS, src, int(n))
	})

	// --- Device registration / PCI ---------------------------------------
	k.bind("alloc_etherdev", cost.KmallocCost, func(c *cpu.CPU) (uint32, error) {
		return k.AllocNetdev(arg(c, 0)), nil
	})
	k.bind("register_netdev", cost.MiscSupport, func(c *cpu.CPU) (uint32, error) {
		nd := arg(c, 0)
		k.netdevs = append(k.netdevs, nd)
		k.store(nd+NdFlags, k.load(nd+NdFlags)|NdFlagUp)
		return 0, nil
	})
	k.bind("unregister_netdev", cost.MiscSupport, nil)
	k.bind("free_netdev", cost.MiscSupport, nil)
	k.bind("ioremap", cost.MiscSupport, func(c *cpu.CPU) (uint32, error) {
		pa, size := arg(c, 0), arg(c, 1)
		pages := int((size + mem.PageSize - 1) / mem.PageSize)
		va := k.ioNext
		k.ioNext += uint32(pages+1) * mem.PageSize
		k.Dom.AS.MapRange(va, pa/mem.PageSize, pages)
		return va + pa&mem.PageMask, nil
	})
	k.bind("iounmap", cost.MiscSupport, nil)
	for _, name := range []string{
		"pci_enable_device", "pci_disable_device", "pci_set_master",
		"pci_request_regions", "pci_release_regions", "pci_set_dma_mask",
		"pci_save_state", "pci_restore_state", "pci_find_capability",
		"pci_read_config_word", "pci_write_config_word",
	} {
		k.bind(name, cost.MiscSupport, nil)
	}

	// --- IRQ / queue control ----------------------------------------------
	k.bind("request_irq", cost.MiscSupport, func(c *cpu.CPU) (uint32, error) {
		irq, handler, dev := arg(c, 0), arg(c, 1), arg(c, 4)
		k.irqs[irq] = irqReg{handler: handler, dev: dev}
		return 0, nil
	})
	k.bind("free_irq", cost.MiscSupport, func(c *cpu.CPU) (uint32, error) {
		delete(k.irqs, arg(c, 0))
		return 0, nil
	})
	k.bind("enable_irq", cost.MiscSupport, nil)
	k.bind("disable_irq", cost.MiscSupport, nil)
	k.bind("netif_start_queue", cost.MiscSupport, func(c *cpu.CPU) (uint32, error) {
		nd := arg(c, 0)
		k.store(nd+NdFlags, k.load(nd+NdFlags)&^uint32(NdFlagQueueStopped))
		return 0, nil
	})
	k.bind("netif_stop_queue", cost.MiscSupport, func(c *cpu.CPU) (uint32, error) {
		nd := arg(c, 0)
		k.store(nd+NdFlags, k.load(nd+NdFlags)|NdFlagQueueStopped)
		return 0, nil
	})
	k.bind("netif_wake_queue", cost.MiscSupport, func(c *cpu.CPU) (uint32, error) {
		nd := arg(c, 0)
		k.store(nd+NdFlags, k.load(nd+NdFlags)&^uint32(NdFlagQueueStopped))
		return 0, nil
	})
	k.bind("netif_queue_stopped", cost.MiscSupport, func(c *cpu.CPU) (uint32, error) {
		return k.load(arg(c, 0)+NdFlags) & NdFlagQueueStopped, nil
	})
	k.bind("netif_carrier_on", cost.MiscSupport, nil)
	k.bind("netif_carrier_off", cost.MiscSupport, nil)
	k.bind("netif_carrier_ok", cost.MiscSupport, func(c *cpu.CPU) (uint32, error) {
		return 1, nil
	})

	// --- Timers / delays ---------------------------------------------------
	k.bind("init_timer", cost.TimerOp, func(c *cpu.CPU) (uint32, error) {
		tm := arg(c, 0)
		k.store(tm+TimerExpires, 0)
		return 0, nil
	})
	k.bind("mod_timer", cost.TimerOp, func(c *cpu.CPU) (uint32, error) {
		tm, expires := arg(c, 0), arg(c, 1)
		k.store(tm+TimerExpires, expires)
		for _, t := range k.timers {
			if t == tm {
				return 1, nil
			}
		}
		k.timers = append(k.timers, tm)
		return 0, nil
	})
	k.bind("del_timer", cost.TimerOp, func(c *cpu.CPU) (uint32, error) {
		tm := arg(c, 0)
		for i, t := range k.timers {
			if t == tm {
				k.timers = append(k.timers[:i], k.timers[i+1:]...)
				return 1, nil
			}
		}
		return 0, nil
	})
	k.bind("del_timer_sync", cost.TimerOp, func(c *cpu.CPU) (uint32, error) {
		tm := arg(c, 0)
		for i, t := range k.timers {
			if t == tm {
				k.timers = append(k.timers[:i], k.timers[i+1:]...)
				return 1, nil
			}
		}
		return 0, nil
	})
	k.bind("msleep", cost.MiscSupport, nil)
	k.bind("mdelay", cost.MiscSupport, nil)
	k.bind("udelay", cost.MiscSupport, nil)
	k.bind("schedule_work", cost.MiscSupport, nil)

	// --- Diagnostics / misc -------------------------------------------------
	k.bind("printk", cost.MiscSupport, func(c *cpu.CPU) (uint32, error) {
		k.printkLog++
		return 0, nil
	})
	for _, name := range []string{
		"dump_stack", "warn_on_slowpath", "capable", "dev_alloc_name",
		"eth_validate_addr", "ethtool_op_get_link", "ethtool_op_get_tx_csum",
		"ethtool_op_set_tx_csum", "ethtool_op_get_sg", "ethtool_op_set_sg",
		"mii_ethtool_gset", "mii_ethtool_sset", "mii_check_link",
		"generic_mii_ioctl", "crc32_le", "random_ether_addr",
		"skb_over_panic", "skb_under_panic", "dev_close", "dev_open",
		"call_netdevice_notifiers", "synchronize_irq", "tasklet_init",
		"tasklet_schedule", "tasklet_kill", "round_jiffies",
	} {
		k.bind(name, cost.MiscSupport, nil)
	}

	// is_valid_ether_addr: multicast/zero checks on a MAC pointer.
	k.bind("is_valid_ether_addr", cost.MiscSupport, func(c *cpu.CPU) (uint32, error) {
		a := arg(c, 0)
		b0, err := k.Dom.AS.Load(a, 1)
		if err != nil {
			return 0, err
		}
		any := false
		for i := uint32(0); i < 6; i++ {
			v, err := k.Dom.AS.Load(a+i, 1)
			if err != nil {
				return 0, err
			}
			if v != 0 {
				any = true
			}
		}
		if b0&1 != 0 || !any {
			return 0, nil
		}
		return 1, nil
	})

	// PrintkCount is observable via counts; nothing else to do.
}

// PrintkCount reports how many printk calls the drivers made.
func (k *Kernel) PrintkCount() int { return k.printkLog }
