package rc

import (
	"npf/internal/fabric"
	"npf/internal/mem"
)

// QPN is a queue-pair number, unique per HCA.
type QPN int32

type pktKind int

const (
	pktData       pktKind = iota // send/write payload chunk
	pktAck                       // cumulative acknowledgment
	pktRNRNack                   // receiver not ready: rewind to AckPSN, pause
	pktReadReq                   // RDMA read request
	pktReadResp                  // RDMA read response chunk
	pktSeqNack                   // out-of-sequence NAK: rewind to AckPSN now
	pktReadCredit                // initiator grants more read-response credits
	pktReadRNR                   // initiator read-RNR (§4 future-work extension)
	pktReadResume                // initiator resumes a read-RNR'd stream at ReadOff
	pktReadDone                  // initiator confirms full placement; stream freed
	pktUD                        // unreliable datagram
)

type opKind int

const (
	opSend opKind = iota
	opWrite
)

// packet is the wire format shared by all RC/UD traffic. One struct with a
// Kind discriminator keeps the hot demux path monomorphic.
//
// A packet embeds the fabric frame that carries it, and the frame's Payload
// points back at the packet, so each wire packet is one object. Packets
// come from the sending HCA's free list (HCA.send) and return to it once
// the receiving HCA has handled them (HCA.Deliver).
type packet struct {
	fabric.Packet

	Kind     pktKind
	SrcQPN   QPN
	SrcNode  int // sender's fabric node; set for UD (address-handle replies)
	DstQPN   QPN
	PSN      uint64
	Op       opKind
	ChunkLen int
	MsgLen   int
	MsgOff   int
	Raddr    mem.VAddr // write target / read source for this chunk
	Last     bool
	App      any // application payload, on the last chunk of a send

	from *HCA // the sending adapter, whose free list the packet returns to

	AckPSN uint64 // pktAck, pktRNRNack

	ReqID   int64 // pktReadReq, pktReadResp
	ReadOff int   // resp: chunk offset; req: starting offset (rewind point)
}

// fabricNode converts the int-typed peer node field back to a fabric id.
func fabricNode(n int) fabric.NodeID { return fabric.NodeID(n) }
