package obs

// Transport-level trace types.  The transport records per-link frame events
// and clock-offset samples against the wall clock (unix nanoseconds, not the
// trace-relative clock rank events use) because their whole purpose is
// cross-node correlation: `puretrace merge` aligns the wall clocks of
// several per-node dumps and then matches LinkSend/LinkRecv pairs on link
// sequence numbers for exact per-link one-way latency.  They are defined
// here, not in internal/transport, so the binary trace dump codec can carry
// them without importing the transport.

// LinkEventKind says what happened on the link.
type LinkEventKind uint8

const (
	// LinkSend: a sequenced frame was assigned its link sequence number and
	// queued/transmitted toward the peer.
	LinkSend LinkEventKind = iota + 1
	// LinkRecv: a sequenced frame was delivered in order from the peer.
	LinkRecv
	// LinkReplay: a reconnect replayed the unacked window (Seq is the
	// lowest replayed sequence, Bytes the frame count).
	LinkReplay
	// LinkReset: the link tore its connection down (Seq is the delivered
	// watermark the next connection's replay starts from).
	LinkReset
)

func (k LinkEventKind) String() string {
	switch k {
	case LinkSend:
		return "link-send"
	case LinkRecv:
		return "link-recv"
	case LinkReplay:
		return "link-replay"
	case LinkReset:
		return "link-reset"
	}
	return "link-unknown"
}

// LinkEvent is one transport frame event.
type LinkEvent struct {
	TS   int64 // unix nanoseconds on the recording node's clock
	Kind LinkEventKind
	Node int32 // node that recorded the event
	Peer int32 // the other end of the link
	Seq  uint64
	// Bytes is the frame payload size; for LinkReplay it is the number of
	// frames replayed, and for LinkReset 0.
	Bytes int32
}

// ClockSample is one accepted NTP-style offset measurement against a peer
// node, as recorded into trace dumps for post-run alignment.
type ClockSample struct {
	Peer          int32 // peer node id
	LocalUnixNano int64 // local clock when the echo arrived
	OffsetNs      int64 // estimated peer clock minus local clock
	DelayNs       int64 // round-trip time with the peer's hold removed
}
