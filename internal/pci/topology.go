package pci

import (
	"fmt"

	"sud/internal/mem"
)

// ACS holds the Access Control Services settings of a PCI express switch
// (§3.2.2). With both features enabled, every DMA request is forced through
// the root complex (and hence the IOMMU), and devices cannot spoof requester
// IDs — the two properties SUD needs to stop peer-to-peer DMA attacks.
type ACS struct {
	// SourceValidation drops TLPs whose requester ID does not belong to
	// the downstream port they arrived on.
	SourceValidation bool
	// P2PRedirect forwards peer-to-peer requests upstream to the root
	// instead of routing them directly between downstream ports.
	P2PRedirect bool
}

// UpstreamHandler terminates TLPs at the root complex. The hw package
// implements it with IOMMU translation + DRAM + the MSI window.
type UpstreamHandler interface {
	HandleUpstream(tlp TLP) Completion
}

// Switch is a PCI express switch (or, with Legacy set, a conventional shared
// PCI bus where peer-to-peer traffic cannot be filtered at all).
type Switch struct {
	Name   string
	ACS    ACS
	Legacy bool // conventional PCI: P2P is wired into the bus, ACS impossible

	parent Port // toward the root; nil for the switch directly under the root
	ports  []*downPort

	// gen counts attaches at or below this switch; devPorts is the
	// depth-first list of device ports below it, valid while devGen == gen.
	gen      uint64
	devGen   uint64
	devPorts []*downPort

	// DroppedTLPs counts TLPs discarded by source validation.
	DroppedTLPs uint64
}

type downPort struct {
	sw    *Switch
	dev   Device
	child *Switch

	// The memoized decode of dev's enabled memory BARs: valid while dev's
	// config space is decCfg and its write generation is still decGen.
	decCfg *ConfigSpace
	decGen uint64
	nwin   int
	win    [6]barWindow
}

// barWindow is one decoded memory BAR: [base, base+size).
type barWindow struct {
	bar        int
	base, size uint64
}

// Upstream implements Port for a child switch: TLPs from the child arrive at
// this switch as if from a downstream port.
func (p *downPort) Upstream(tlp TLP) Completion {
	return p.sw.fromDownstream(p, tlp)
}

// NewSwitch returns a switch with the given ACS settings.
func NewSwitch(name string, acs ACS) *Switch {
	return &Switch{Name: name, ACS: acs}
}

// AttachDevice plugs dev into a new downstream port.
func (s *Switch) AttachDevice(dev Device) {
	p := &downPort{sw: s, dev: dev}
	s.ports = append(s.ports, p)
	s.topologyChanged()
	dev.Attach(p)
}

// AttachSwitch plugs child into a new downstream port.
func (s *Switch) AttachSwitch(child *Switch) {
	p := &downPort{sw: s, child: child}
	s.ports = append(s.ports, p)
	child.parent = p
	s.topologyChanged()
}

// topologyChanged bumps the generation of s and every switch above it.
func (s *Switch) topologyChanged() {
	for sw := s; sw != nil; {
		sw.gen++
		up, ok := sw.parent.(*downPort)
		if !ok {
			break
		}
		sw = up.sw
	}
}

// devicePorts returns the ports of every device below s, depth-first.
func (s *Switch) devicePorts() []*downPort {
	if s.devGen != s.gen {
		var ps []*downPort
		for _, p := range s.ports {
			if p.dev != nil {
				ps = append(ps, p)
			}
			if p.child != nil {
				ps = append(ps, p.child.devicePorts()...)
			}
		}
		s.devPorts, s.devGen = ps, s.gen
	}
	return s.devPorts
}

// Devices returns the devices below this switch, depth-first.
func (s *Switch) Devices() []Device {
	var out []Device
	for _, p := range s.devicePorts() {
		out = append(out, p.dev)
	}
	return out
}

// portOwns reports whether requester is a valid source for TLPs arriving on
// port p (the device on p, or any device below p's child switch).
func portOwns(p *downPort, requester BDF) bool {
	if p.dev != nil {
		return p.dev.BDF() == requester
	}
	if p.child != nil {
		for _, d := range p.child.devicePorts() {
			if d.dev.BDF() == requester {
				return true
			}
		}
	}
	return false
}

// fromDownstream routes a TLP that arrived from downstream port src.
func (s *Switch) fromDownstream(src *downPort, tlp TLP) Completion {
	// ACS source validation (meaningless on legacy shared buses).
	if !s.Legacy && s.ACS.SourceValidation && !portOwns(src, tlp.Requester) {
		s.DroppedTLPs++
		return Completion{Err: &RouteError{TLP: tlp, Reason: "ACS source validation: spoofed requester ID"}}
	}

	// Peer-to-peer routing: on a legacy bus, or on a PCIe switch without
	// P2P redirection, a TLP whose address falls inside a peer device's
	// BAR is delivered directly — bypassing the IOMMU. This is the attack
	// §3.2.2 closes with ACS.
	direct := s.Legacy || !s.ACS.P2PRedirect
	if direct {
		for _, p := range s.ports {
			if p == src {
				continue
			}
			if p.dev != nil {
				if bar, off, ok := p.barContaining(tlp.Addr); ok {
					return deliverMMIO(p.dev, bar, off, tlp)
				}
			}
		}
	}

	if s.parent == nil {
		return Completion{Err: &RouteError{TLP: tlp, Reason: "no upstream port"}}
	}
	return s.parent.Upstream(tlp)
}

// barContaining locates the memory BAR of the port's device that contains
// addr. The BAR decode is redone only after a config-space write.
func (p *downPort) barContaining(addr mem.Addr) (bar int, off uint64, ok bool) {
	if cfg := p.dev.Config(); cfg != p.decCfg || cfg.gen != p.decGen {
		p.decode(cfg)
	}
	a := uint64(addr)
	for _, w := range p.win[:p.nwin] {
		if a >= w.base && a < w.base+w.size {
			return w.bar, a - w.base, true
		}
	}
	return 0, 0, false
}

// decode records cfg's enabled, implemented, placed memory BARs.
func (p *downPort) decode(cfg *ConfigSpace) {
	p.decCfg, p.decGen, p.nwin = cfg, cfg.gen, 0
	if cfg.Read(CfgCommand, 2)&CmdMemSpace == 0 {
		return
	}
	for i := 0; i < 6; i++ {
		base, info := cfg.BAR(i)
		if info.Size == 0 || info.IO || base == 0 {
			continue
		}
		p.win[p.nwin] = barWindow{bar: i, base: base, size: info.Size}
		p.nwin++
	}
}

// DeliverMMIO turns a routed TLP into register accesses on the target
// device. Peer-to-peer writes hit device registers just like CPU MMIO. The
// root complex also uses it for ACS-redirected P2P traffic the IOMMU permits.
func DeliverMMIO(dev Device, bar int, off uint64, tlp TLP) Completion {
	return deliverMMIO(dev, bar, off, tlp)
}

func deliverMMIO(dev Device, bar int, off uint64, tlp TLP) Completion {
	switch tlp.Type {
	case MemWrite:
		// Deliver in 4-byte chunks, as the fabric would.
		for i := 0; i < len(tlp.Data); i += 4 {
			n := 4
			if i+n > len(tlp.Data) {
				n = len(tlp.Data) - i
			}
			var v uint64
			for j := n - 1; j >= 0; j-- {
				v = v<<8 | uint64(tlp.Data[i+j])
			}
			dev.MMIOWrite(bar, off+uint64(i), n, v)
		}
		return Completion{}
	case MemRead:
		// The register reads complete into the requester's buffer.
		out := tlp.Data
		for i := 0; i < len(out); i += 4 {
			n := 4
			if i+n > len(out) {
				n = len(out) - i
			}
			v := dev.MMIORead(bar, off+uint64(i), n)
			for j := 0; j < n; j++ {
				out[i+j] = byte(v >> (8 * j))
			}
		}
		return Completion{}
	default:
		return Completion{Err: &RouteError{TLP: tlp, Reason: "unsupported TLP type"}}
	}
}

// RootComplex is the top of the fabric. Every TLP that reaches it is handed
// to the platform's UpstreamHandler (IOMMU + DRAM + MSI window).
type RootComplex struct {
	Handler UpstreamHandler
	root    *Switch
}

// NewRootComplex builds a root complex with the given root switch and
// handler.
func NewRootComplex(root *Switch, h UpstreamHandler) *RootComplex {
	rc := &RootComplex{Handler: h, root: root}
	root.parent = rootPort{rc}
	return rc
}

type rootPort struct{ rc *RootComplex }

func (p rootPort) Upstream(tlp TLP) Completion {
	if p.rc.Handler == nil {
		return Completion{Err: &RouteError{TLP: tlp, Reason: "no upstream handler"}}
	}
	return p.rc.Handler.HandleUpstream(tlp)
}

// Devices enumerates every device in the fabric.
func (rc *RootComplex) Devices() []Device { return rc.root.Devices() }

// DeviceByBDF finds a device by its address.
func (rc *RootComplex) DeviceByBDF(bdf BDF) (Device, error) {
	for _, p := range rc.root.devicePorts() {
		if p.dev.BDF() == bdf {
			return p.dev, nil
		}
	}
	return nil, fmt.Errorf("pci: no device at %s", bdf)
}

// FindMMIO locates the device and BAR containing physical address addr, for
// CPU-initiated MMIO dispatch.
func (rc *RootComplex) FindMMIO(addr mem.Addr) (dev Device, bar int, off uint64, ok bool) {
	for _, p := range rc.root.devicePorts() {
		if b, o, found := p.barContaining(addr); found {
			return p.dev, b, o, true
		}
	}
	return nil, 0, 0, false
}

// ConfigRead performs a CPU-initiated config read.
func (rc *RootComplex) ConfigRead(bdf BDF, off, size int) (uint32, error) {
	d, err := rc.DeviceByBDF(bdf)
	if err != nil {
		return 0xFFFFFFFF, err
	}
	return d.Config().Read(off, size), nil
}

// ConfigWrite performs a CPU-initiated config write.
func (rc *RootComplex) ConfigWrite(bdf BDF, off, size int, v uint32) error {
	d, err := rc.DeviceByBDF(bdf)
	if err != nil {
		return err
	}
	d.Config().Write(off, size, v)
	return nil
}
