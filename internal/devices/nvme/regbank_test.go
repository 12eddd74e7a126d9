package nvme

import (
	"encoding/binary"
	"testing"

	"sud/internal/hw"
	"sud/internal/mem"
	"sud/internal/pci"
	"sud/internal/sim"
)

// Where the register-bank rigs keep their queues and data in RAM.
const (
	rbASQ  mem.Addr = 0x200000 // admin SQ, 16 entries
	rbACQ  mem.Addr = 0x201000 // admin CQ
	rbIOSQ mem.Addr = 0x202000 // I/O SQs, one page each
	rbIOCQ mem.Addr = 0x206000 // I/O CQs, one page each
	rbData mem.Addr = 0x300000 // data pages
)

type regBankRig struct {
	m *hw.Machine
	c *Ctrl
}

// newRegBankRig boots a cached controller on its own machine with a
// passthrough domain and RAM laid out for the admin queue to create every
// I/O queue pair, and each I/O SQ to carry reads, writes and flushes
// (entries drawn from seed). mapBacked swaps in a register file with no
// word array, which serves every offset from its side map.
func newRegBankRig(t *testing.T, seed uint64, mapBacked bool) *regBankRig {
	t.Helper()
	m := hw.NewMachine(hw.DefaultPlatform())
	c := New(m.Loop, pci.MakeBDF(2, 0, 0), 0xFEC00000, CachedParams(MaxIOQueues, 8))
	if mapBacked {
		c.regs = pci.RegFile{}
		c.reset()
	}
	c.Config().Write(pci.CfgCommand, 2, pci.CmdMemSpace|pci.CmdBusMaster)
	m.AttachDevice(c)
	dom := m.IOMMU.NewDomain()
	dom.Passthrough = true
	m.IOMMU.Attach(c.BDF(), dom)

	var sqe [SQESize]byte
	put := func(at mem.Addr) { m.Mem.MustWrite(at, sqe[:]); sqe = [SQESize]byte{} }
	for q := 1; q <= MaxIOQueues; q++ {
		sqe[sqeOpcode] = AdminCreateIOCQ
		binary.LittleEndian.PutUint64(sqe[sqePRP1:], uint64(rbIOCQ)+uint64(q-1)*mem.PageSize)
		binary.LittleEndian.PutUint16(sqe[sqeQID:], uint16(q))
		binary.LittleEndian.PutUint16(sqe[sqeQSize:], 15)
		put(rbASQ + mem.Addr(2*(q-1)*SQESize))
		sqe[sqeOpcode] = AdminCreateIOSQ
		binary.LittleEndian.PutUint64(sqe[sqePRP1:], uint64(rbIOSQ)+uint64(q-1)*mem.PageSize)
		binary.LittleEndian.PutUint16(sqe[sqeQID:], uint16(q))
		binary.LittleEndian.PutUint16(sqe[sqeQSize:], 15)
		binary.LittleEndian.PutUint16(sqe[sqeCQID:], uint16(q))
		put(rbASQ + mem.Addr((2*(q-1)+1)*SQESize))
	}
	rnd := sim.NewRand(seed)
	for q := 1; q <= MaxIOQueues; q++ {
		for i := 0; i < 16; i++ {
			sqe[sqeOpcode] = []byte{CmdRead, CmdWrite, CmdFlush}[rnd.Intn(3)]
			binary.LittleEndian.PutUint16(sqe[sqeCID:], uint16(i))
			binary.LittleEndian.PutUint64(sqe[sqePRP1:], uint64(rbData)+uint64(rnd.Intn(16))*mem.PageSize)
			binary.LittleEndian.PutUint64(sqe[sqeSLBA:], uint64(rnd.Intn(64)))
			sqe[sqeFlags] = byte(rnd.Intn(2))
			put(rbIOSQ + mem.Addr((q-1)*mem.PageSize+i*SQESize))
		}
	}
	m.Mem.AllocRange(rbData, 16*mem.PageSize)
	return &regBankRig{m: m, c: c}
}

func (r *regBankRig) counters() [16]uint64 {
	c := r.c
	return [16]uint64{c.Commands, c.ReadBlocks, c.WriteBlocks, c.DMAFaults, c.LBARejects,
		c.BadCommands, c.BadDoorbells, c.SQDoorbellWrites, c.CQOverruns, c.InterruptsRaised,
		c.InterruptsSuppressedBy, c.Flushes, c.FlushedBlocks, c.FUAWrites, c.CacheEvictions,
		c.CacheHits}
}

// TestRegBankMatchesMapModel drives random MMIO sequences into two
// controllers, one with the indexed register file and one whose register
// file is map-backed, and requires every read, every counter and finally
// the whole BAR to agree. The offsets cover the configuration registers,
// every doorbell, unaligned offsets anywhere in the BAR and offsets past
// its end; CC enable and disable (a controller reset, which clears the
// bank) and the admin queue registers are programmed at random, so the
// admin and I/O engines run against what the bank holds.
func TestRegBankMatchesMapModel(t *testing.T) {
	offs := []uint64{RegCC, RegCSTS, RegAQA, RegASQL, RegASQH, RegACQL, RegACQH,
		RegINTMS, RegINTMC, RegINTCOAL, RegVWC, 0x0000, 0x0008}
	for q := 0; q <= MaxIOQueues; q++ {
		offs = append(offs, SQDoorbell(q), CQDoorbell(q))
	}
	offs = append(offs, CQDoorbell(MaxIOQueues)+DoorbellStride)

	var commands uint64
	for seed := uint64(1); seed <= 12; seed++ {
		rnd := sim.NewRand(seed)
		a, b := newRegBankRig(t, seed, false), newRegBankRig(t, seed, true)
		touched := map[uint64]bool{}
		write := func(off, v uint64) {
			touched[off] = true
			a.c.MMIOWrite(0, off, 4, v)
			b.c.MMIOWrite(0, off, 4, v)
		}
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
			case r < 2:
				// Program the admin queue and enable: the admin SQ
				// creates the I/O queue pairs when its doorbell rings.
				write(RegCC, 0)
				write(RegAQA, 15|15<<16)
				write(RegASQL, uint64(rbASQ))
				write(RegASQH, 0)
				write(RegACQL, uint64(rbACQ))
				write(RegACQH, 0)
				write(RegCC, CcEnable)
				write(SQDoorbell(0), uint64(2*MaxIOQueues))
			case r < 10:
				v := rnd.Uint64() & 0xFFFFFFFF
				if rnd.Intn(2) == 0 {
					v &= 0x1F // in-ring doorbells, small masks and intervals
				}
				write(off, v)
			default:
				if ga, gb := a.c.MMIORead(0, off, 4), b.c.MMIORead(0, off, 4); ga != gb {
					t.Fatalf("seed %d op %d: read %#x = %#x, map-backed %#x", seed, op, off, ga, gb)
				}
			}
			a.m.Loop.RunFor(5 * sim.Microsecond)
			b.m.Loop.RunFor(5 * sim.Microsecond)
			if ca, cb := a.counters(), b.counters(); ca != cb {
				t.Fatalf("seed %d op %d: counters %v, map-backed %v", seed, op, ca, cb)
			}
		}
		commands += a.c.ReadBlocks + a.c.WriteBlocks
		for off := uint64(0); off < BARSize; off += 4 {
			touched[off] = true
		}
		for off := range touched {
			if ga, gb := a.c.MMIORead(0, off, 4), b.c.MMIORead(0, off, 4); ga != gb {
				t.Fatalf("seed %d: final read %#x = %#x, map-backed %#x", seed, off, ga, gb)
			}
		}
	}
	if commands == 0 {
		t.Fatal("the sequences never moved a block: the I/O engines went unchecked")
	}
}
