// Package pci models the PCI express fabric SUD depends on: configuration
// space with capabilities (notably MSI), memory/IO BARs, transaction-layer
// packets (TLPs), and a switch topology with Access Control Services (ACS).
//
// The paper's §3.2 threat model lives here: a device under a malicious
// driver's control issues arbitrary memory TLPs; whether those TLPs can reach
// another device's registers (peer-to-peer DMA) or physical memory is decided
// entirely by switch routing (ACS) and the IOMMU at the root complex.
package pci

import "fmt"

// BDF is a bus/device/function triple — the requester ID stamped on every
// TLP a device issues. The (trusted) device hardware stamps it; ACS source
// validation checks it.
type BDF uint16

// MakeBDF assembles a BDF from bus, device and function numbers.
func MakeBDF(bus, dev, fn int) BDF {
	return BDF(bus<<8 | (dev&0x1f)<<3 | fn&0x7)
}

func (b BDF) String() string {
	return fmt.Sprintf("%02x:%02x.%d", int(b>>8), int(b>>3)&0x1f, int(b)&0x7)
}

// Standard configuration space offsets.
const (
	CfgVendorID  = 0x00
	CfgDeviceID  = 0x02
	CfgCommand   = 0x04
	CfgStatus    = 0x06
	CfgRevision  = 0x08
	CfgClassCode = 0x09
	CfgHeader    = 0x0E
	CfgBAR0      = 0x10
	CfgCapPtr    = 0x34
	CfgIntLine   = 0x3C
	CfgIntPin    = 0x3D

	// CfgSize is the size of the (legacy) config space we model.
	CfgSize = 256
)

// Command register bits.
const (
	CmdIOSpace    = 1 << 0
	CmdMemSpace   = 1 << 1
	CmdBusMaster  = 1 << 2
	CmdIntDisable = 1 << 10
)

// Capability IDs.
const (
	CapIDMSI = 0x05
)

// MSI capability layout (32-bit address variant), relative to the capability
// base: [0]=cap ID, [1]=next ptr, [2:4]=message control, [4:8]=message
// address, [8:10]=message data, [12:16]=per-vector mask bits.
const (
	msiCtlOff  = 2
	msiAddrOff = 4
	msiDataOff = 8
	msiMaskOff = 12

	// MSICapSize is the number of config bytes the MSI capability spans.
	MSICapSize = 16

	// MSI message control bits.
	MSICtlEnable  = 1 << 0
	MSICtlMaskCap = 1 << 8
)

// BARInfo describes one base address register.
type BARInfo struct {
	Size uint64 // 0 means the BAR is not implemented
	IO   bool   // true for legacy IO-space BARs
}

// ConfigSpace is one function's 256-byte configuration space. Reads and
// writes go through Read/Write so size probing (writing all-ones to a BAR)
// and read-only fields behave as on hardware.
type ConfigSpace struct {
	raw  [CfgSize]byte
	bars [6]BARInfo

	msiBase int // offset of the MSI capability, 0 if absent

	// gen counts mutations. Anything decoded from the space (the fabric's
	// BAR windows) is valid only while gen is unchanged.
	gen uint64

	// OnMSIChange, if set, is invoked whenever a write lands in the MSI
	// capability (the interrupt subsystem watches mask/enable changes).
	OnMSIChange func()
}

// NewConfigSpace builds a config space for a function with the given IDs.
func NewConfigSpace(vendor, device uint16, class uint8) *ConfigSpace {
	c := &ConfigSpace{}
	c.putU16(CfgVendorID, vendor)
	c.putU16(CfgDeviceID, device)
	c.raw[CfgClassCode+2] = class
	return c
}

func (c *ConfigSpace) putU16(off int, v uint16) {
	c.gen++
	c.raw[off] = byte(v)
	c.raw[off+1] = byte(v >> 8)
}

func (c *ConfigSpace) u16(off int) uint16 {
	return uint16(c.raw[off]) | uint16(c.raw[off+1])<<8
}

func (c *ConfigSpace) putU32(off int, v uint32) {
	c.gen++
	for i := 0; i < 4; i++ {
		c.raw[off+i] = byte(v >> (8 * i))
	}
}

func (c *ConfigSpace) u32(off int) uint32 {
	var v uint32
	for i := 3; i >= 0; i-- {
		v = v<<8 | uint32(c.raw[off+i])
	}
	return v
}

// SetBAR declares BAR i with the given size (must be a power of two >= 16 for
// memory BARs) and kind, at the given initial base address.
func (c *ConfigSpace) SetBAR(i int, base uint64, size uint64, io bool) {
	if i < 0 || i >= 6 {
		panic("pci: BAR index out of range")
	}
	if size&(size-1) != 0 || size == 0 {
		panic("pci: BAR size must be a power of two")
	}
	c.gen++
	c.bars[i] = BARInfo{Size: size, IO: io}
	v := uint32(base)
	if io {
		v |= 1
	}
	c.putU32(CfgBAR0+4*i, v)
}

// BAR returns BAR i's current base address and static info.
func (c *ConfigSpace) BAR(i int) (base uint64, info BARInfo) {
	info = c.bars[i]
	v := c.u32(CfgBAR0 + 4*i)
	if info.IO {
		return uint64(v &^ 0x3), info
	}
	return uint64(v &^ 0xF), info
}

// AddMSICapability appends an MSI capability (with per-vector masking) to
// the capability list and returns its config offset.
func (c *ConfigSpace) AddMSICapability() int {
	base := 0x50
	for c.raw[base] != 0 {
		base += MSICapSize
		if base+MSICapSize > CfgSize {
			panic("pci: config space capability area full")
		}
	}
	c.gen++
	c.raw[base] = CapIDMSI
	c.raw[base+1] = c.raw[CfgCapPtr] // chain in front
	c.raw[CfgCapPtr] = byte(base)
	c.raw[CfgStatus] |= 0x10 // capabilities list present
	c.putU16(base+msiCtlOff, MSICtlMaskCap)
	c.msiBase = base
	return base
}

// MSICapOffset returns the MSI capability's config offset, or 0 if absent.
func (c *ConfigSpace) MSICapOffset() int { return c.msiBase }

// MSIState is a decoded view of the MSI capability.
type MSIState struct {
	Present bool
	Enabled bool
	Masked  bool // per-vector mask bit 0
	Address uint64
	Data    uint16
}

// MSI decodes the MSI capability.
func (c *ConfigSpace) MSI() MSIState {
	if c.msiBase == 0 {
		return MSIState{}
	}
	ctl := c.u16(c.msiBase + msiCtlOff)
	return MSIState{
		Present: true,
		Enabled: ctl&MSICtlEnable != 0,
		Masked:  c.u32(c.msiBase+msiMaskOff)&1 != 0,
		Address: uint64(c.u32(c.msiBase + msiAddrOff)),
		Data:    c.u16(c.msiBase + msiDataOff),
	}
}

// SetMSIMasked sets/clears the per-vector mask bit. This is what the kernel's
// safe-access module uses for generic interrupt masking (§3.2.2: MSI supports
// "generic interrupt masking that does not depend on the specific device").
func (c *ConfigSpace) SetMSIMasked(masked bool) {
	if c.msiBase == 0 {
		return
	}
	v := c.u32(c.msiBase + msiMaskOff)
	if masked {
		v |= 1
	} else {
		v &^= 1
	}
	c.putU32(c.msiBase+msiMaskOff, v)
	if c.OnMSIChange != nil {
		c.OnMSIChange()
	}
}

// BusMasterEnabled reports whether the function may issue DMA.
func (c *ConfigSpace) BusMasterEnabled() bool {
	return c.u16(CfgCommand)&CmdBusMaster != 0
}

// Read returns size (1, 2 or 4) bytes at offset off.
func (c *ConfigSpace) Read(off, size int) uint32 {
	if off < 0 || size < 1 || size > 4 || off+size > CfgSize {
		return 0xFFFFFFFF
	}
	var v uint32
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint32(c.raw[off+i])
	}
	return v
}

// Write stores size bytes of v at offset off, honoring hardware semantics:
// read-only ID fields are ignored, and writing all-ones to a BAR performs
// size probing (the next read returns the size mask).
func (c *ConfigSpace) Write(off, size int, v uint32) {
	if off < 0 || size < 1 || size > 4 || off+size > CfgSize {
		return
	}
	// Vendor/device ID are read-only.
	if off+size <= CfgCommand {
		return
	}
	// BAR size probing.
	if off >= CfgBAR0 && off < CfgBAR0+24 && size == 4 && (off-CfgBAR0)%4 == 0 {
		i := (off - CfgBAR0) / 4
		info := c.bars[i]
		if info.Size == 0 {
			return // unimplemented BAR: writes ignored, reads return 0
		}
		if v == 0xFFFFFFFF {
			mask := uint32(^(info.Size - 1))
			if info.IO {
				c.putU32(off, mask|1)
			} else {
				c.putU32(off, mask)
			}
			return
		}
		// Regular base update; preserve the type bits.
		if info.IO {
			c.putU32(off, (v&^0x3)|1)
		} else {
			c.putU32(off, v&^0xF)
		}
		return
	}
	c.gen++
	for i := 0; i < size; i++ {
		c.raw[off+i] = byte(v >> (8 * i))
	}
	if c.msiBase != 0 && off+size > c.msiBase && off < c.msiBase+MSICapSize {
		if c.OnMSIChange != nil {
			c.OnMSIChange()
		}
	}
}

// VendorID and DeviceID return the function's identity.
func (c *ConfigSpace) VendorID() uint16 { return c.u16(CfgVendorID) }
func (c *ConfigSpace) DeviceID() uint16 { return c.u16(CfgDeviceID) }
