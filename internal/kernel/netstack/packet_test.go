package netstack

import (
	"bytes"
	"math/rand"
	"testing"
)

// appendFrame is the append-as-you-go frame build the in-place builders
// replaced: MAC header, then a separately marshalled segment behind a
// header marshalled for its length.
func appendFrame(srcMAC, dstMAC MAC, srcIP, dstIP IP, proto uint8, seg []byte) []byte {
	eh := EthHeader{Dst: dstMAC, Src: srcMAC, EtherType: EtherTypeIPv4}
	frame := eh.Marshal(nil)
	ih := IPv4Header{Proto: proto, TTL: 64, Src: srcIP, Dst: dstIP}
	frame = ih.Marshal(frame, len(seg))
	return append(frame, seg...)
}

// TestBuildFrameMatchesAppendBuild: the in-place builders produce exactly
// the bytes of the append build, for random addresses, ports and payloads
// of every parity, in one allocation each.
func TestBuildFrameMatchesAppendBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		var sm, dm MAC
		var si, di IP
		rng.Read(sm[:])
		rng.Read(dm[:])
		rng.Read(si[:])
		rng.Read(di[:])
		payload := make([]byte, rng.Intn(1400))
		rng.Read(payload)
		sp, dp := uint16(rng.Intn(1<<16)), uint16(rng.Intn(1<<16))
		udp := BuildUDPFrame(sm, dm, si, di, sp, dp, payload)
		want := appendFrame(sm, dm, si, di, ProtoUDP, MarshalUDP(nil, si, di, UDPHeader{sp, dp}, payload))
		if !bytes.Equal(udp, want) {
			t.Fatalf("case %d: UDP frame differs from the append build", i)
		}
		h := TCPHeader{SrcPort: sp, DstPort: dp, Seq: rng.Uint32(), Ack: rng.Uint32(), Flags: TCPAck, Window: 512}
		tcp := BuildTCPFrame(sm, dm, si, di, h, payload)
		want = appendFrame(sm, dm, si, di, ProtoTCP, MarshalTCP(nil, si, di, h, payload))
		if !bytes.Equal(tcp, want) {
			t.Fatalf("case %d: TCP frame differs from the append build", i)
		}
	}
	payload := make([]byte, 18)
	if n := testing.AllocsPerRun(100, func() { BuildUDPFrame(MAC{}, MAC{}, IP{}, IP{}, 1, 2, payload) }); n != 1 {
		t.Fatalf("BuildUDPFrame allocates %.1f times, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { BuildTCPFrame(MAC{}, MAC{}, IP{}, IP{}, TCPHeader{}, payload) }); n != 1 {
		t.Fatalf("BuildTCPFrame allocates %.1f times, want 1", n)
	}
}
