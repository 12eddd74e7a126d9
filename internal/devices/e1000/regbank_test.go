package e1000

import (
	"testing"

	"sud/internal/ethlink"
	"sud/internal/hw"
	"sud/internal/mem"
	"sud/internal/pci"
	"sud/internal/sim"
)

// regBankRig is one NIC on its own machine, link and passthrough domain,
// so that random register programming reaches DMA, steering and interrupts.
type regBankRig struct {
	m    *hw.Machine
	nic  *NIC
	link *ethlink.Link
}

func newRegBankRig(t *testing.T, mapBacked bool) *regBankRig {
	t.Helper()
	m := hw.NewMachine(hw.DefaultPlatform())
	nic := New(m.Loop, pci.MakeBDF(1, 0, 0), 0xFEB00000, testMAC, MultiQueueParams(MaxRxQueues))
	if mapBacked {
		// A bank with no word array serves every offset from its
		// side map: register storage keyed by offset, as a map.
		nic.regs = pci.RegFile{}
		nic.reset()
	}
	nic.Config().Write(pci.CfgCommand, 2, pci.CmdMemSpace|pci.CmdBusMaster)
	m.AttachDevice(nic)
	dom := m.IOMMU.NewDomain()
	dom.Passthrough = true
	m.IOMMU.Attach(nic.BDF(), dom)
	// A descriptor area whose entries name RAM buffers, for ring bases
	// programmed at descRing to fetch: RX frames land and TX frames leave.
	for i := 0; i < 256; i++ {
		var d [DescSize]byte
		putLE64(d[0:8], uint64(descBufs)+uint64(i)*2048)
		putLE16(d[8:10], uint16(60+i))
		d[11] = TxCmdEOP | TxCmdRS
		m.Mem.MustWrite(descRing+mem.Addr(i*DescSize), d[:])
	}
	link := ethlink.NewGigabit(m.Loop, 0)
	link.Connect(nic, &captureEnd{})
	nic.AttachLink(link, 0)
	return &regBankRig{m: m, nic: nic, link: link}
}

// Where the rigs' descriptor area and its buffers live in RAM.
const (
	descRing mem.Addr = 0x200000
	descBufs mem.Addr = 0x400000
)

func (r *regBankRig) counters() [9]uint64 {
	n := r.nic
	return [9]uint64{n.TxPackets, n.RxPackets, n.TxBytes, n.RxBytes, n.RxDropsNoDesc,
		n.DMAFaults, n.InterruptsRaised, n.TDTWrites, n.RDTWrites}
}

// TestRegBankMatchesMapModel drives random MMIO sequences into two NICs,
// one with the indexed register file and one whose register file is
// map-backed, and requires every read, every counter and finally the whole
// BAR to agree. The offsets cover the named registers, every per-queue RX
// and TX bank, the RSS redirection table (writes are masked), CTRL.RST,
// unaligned offsets anywhere in the BAR and offsets past its end; frames
// arrive from the wire in between, so the steering, DMA and interrupt
// paths read back what was programmed.
func TestRegBankMatchesMapModel(t *testing.T) {
	var offs []uint64
	offs = append(offs, RegCTRL, RegSTATUS, RegEERD, RegICR, RegITR, RegIMS, RegIMC,
		RegRCTL, RegTCTL, RegTQC, RegRQC, RegRAL, RegRAH)
	for q := 0; q < MaxRxQueues; q++ {
		for _, r := range []uint64{RegRDBAL, RegRDBAH, RegRDLEN, RegRDH, RegRDT} {
			offs = append(offs, RxQOff(q, r))
		}
	}
	for q := 0; q < MaxTxQueues; q++ {
		for _, r := range []uint64{RegTDBAL, RegTDBAH, RegTDLEN, RegTDH, RegTDT} {
			offs = append(offs, TxQOff(q, r))
		}
	}
	for i := 0; i < RetaEntries; i++ {
		offs = append(offs, RegRETA+uint64(4*i))
	}

	var total [][9]uint64
	for seed := uint64(1); seed <= 12; seed++ {
		rnd := sim.NewRand(seed)
		a, b := newRegBankRig(t, false), newRegBankRig(t, true)
		touched := map[uint64]bool{}
		pick := func() uint64 {
			switch rnd.Intn(8) {
			case 0:
				return uint64(rnd.Intn(BARSize)) // often unaligned
			case 1:
				return offs[rnd.Intn(len(offs))] + uint64(1+rnd.Intn(3))
			case 2:
				return BARSize + uint64(rnd.Intn(64))
			default:
				return offs[rnd.Intn(len(offs))]
			}
		}
		for op := 0; op < 1500; op++ {
			off := pick()
			switch r := rnd.Intn(20); {
			case r < 10:
				v := rnd.Uint64() & 0xFFFFFFFF
				switch {
				case off == RegCTRL && rnd.Intn(4) == 0:
					v |= CtrlRST
				case off == RegCTRL || off == RegRCTL || off == RegTCTL:
					v |= CtrlSLU | RctlEN
				case isBankReg(off, RegRDBAL, RegTDBAL) && rnd.Intn(4) != 0:
					v = uint64(descRing) + uint64(rnd.Intn(64))*DescSize
				case isBankReg(off, RegRDBAH, RegTDBAH) && rnd.Intn(4) != 0:
					v = 0
				case rnd.Intn(2) == 0:
					v &= 0xFF // small ring lengths, heads and tails
				}
				touched[off] = true
				a.nic.MMIOWrite(0, off, 4, v)
				b.nic.MMIOWrite(0, off, 4, v)
			case r < 17:
				if ga, gb := a.nic.MMIORead(0, off, 4), b.nic.MMIORead(0, off, 4); ga != gb {
					t.Fatalf("seed %d op %d: read %#x = %#x, map-backed %#x", seed, op, off, ga, gb)
				}
			default:
				frame := make([]byte, 60+rnd.Intn(200))
				for i := range frame {
					frame[i] = byte(rnd.Uint64())
				}
				frame[12], frame[13], frame[14], frame[23] = 0x08, 0x00, 0x45, 17 // IPv4 UDP
				ea, eb := a.link.Send(1, frame), b.link.Send(1, frame)
				if (ea == nil) != (eb == nil) {
					t.Fatalf("seed %d op %d: link send %v, map-backed %v", seed, op, ea, eb)
				}
			}
			a.m.Loop.RunFor(2 * sim.Microsecond)
			b.m.Loop.RunFor(2 * sim.Microsecond)
			if ca, cb := a.counters(), b.counters(); ca != cb {
				t.Fatalf("seed %d op %d: counters %v, map-backed %v", seed, op, ca, cb)
			}
		}
		total = append(total, a.counters())
		for off := uint64(0); off < BARSize; off += 4 {
			touched[off] = true
		}
		for off := range touched {
			if ga, gb := a.nic.MMIORead(0, off, 4), b.nic.MMIORead(0, off, 4); ga != gb {
				t.Fatalf("seed %d: final read %#x = %#x, map-backed %#x", seed, off, ga, gb)
			}
		}
	}
	var rx, tx uint64
	for _, c := range total {
		rx, tx = rx+c[1], tx+c[0]
	}
	if rx == 0 || tx == 0 {
		t.Fatalf("the sequences never moved a frame (rx %d, tx %d): the DMA paths went unchecked", rx, tx)
	}
}

// isBankReg reports whether off is the rx or tx register of some queue's
// RX or TX bank.
func isBankReg(off, rx, tx uint64) bool {
	if q, rel, ok := rxQReg(off); ok && q < MaxRxQueues && rel == rx {
		return true
	}
	q, rel, ok := txQReg(off)
	return ok && q < MaxTxQueues && rel == tx
}
