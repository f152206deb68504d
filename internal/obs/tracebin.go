package obs

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Binary trace dump format, so traces survive the recording process and can
// be analyzed offline (cmd/puretrace).  The format is versioned and
// little-endian:
//
//	offset  size  field
//	0       8     magic "PURETRCB"
//	8       4     format version (currently 2)
//	12      4     rank count
//	16      8     dropped-event count (ring wraparound losses at dump time)
//	24      8     event count
//
// The header is followed by a metadata block for cross-node alignment
// (`puretrace merge`):
//
//	32      4     recording node id (int32; -1 = unknown/merged)
//	36      4     job node count (int32; 0 = unknown)
//	40      8     trace start, unix nanoseconds (0 = unknown)
//	48      4     rank-placement entry count (0 or rank count)
//	52      4     clock-offset sample count
//	56      4     transport link-event count
//	60      ...   placements: node int32 per rank
//	        28*k  clock samples: Peer int32, LocalUnixNano int64,
//	              OffsetNs int64, DelayNs int64
//	        29*m  link events: TS int64, Kind uint8, Node int32, Peer int32,
//	              Seq uint64, Bytes int32
//
// and then the events (33 bytes each: TS int64, Dur int64, Arg int64,
// Rank int32, Peer int32, Kind uint8), stored merged across ranks in
// start-time order, exactly as Trace.Events returns them.

// traceBinMagic identifies a trace dump; traceBinVersion is bumped on any
// incompatible layout change (readers reject versions they do not know).
const (
	traceBinMagic     = "PURETRCB"
	traceBinVersion   = 2
	traceBinRecSize   = 8 + 8 + 8 + 4 + 4 + 1
	traceBinMetaSize  = 4 + 4 + 8 + 4 + 4 + 4
	traceBinClockSize = 4 + 8 + 8 + 8
	traceBinLinkSize  = 8 + 1 + 4 + 4 + 8 + 4
)

// maxTraceBinAlloc caps the slice pre-allocation while reading a dump, so a
// corrupt header cannot make ReadTraceBin allocate gigabytes up front; a
// longer table grows by appending as its records actually arrive.
const maxTraceBinAlloc = 1 << 16

// TraceMeta is the recording-time context stored alongside the events in a
// dump: which node recorded the trace, where each rank lives, and
// the clock/transport records cross-node merging needs.
type TraceMeta struct {
	// Node is the recording node's id; -1 when unknown, or when the dump
	// holds a whole job (a single-process run, or a merged dump).
	Node int
	// Nodes is the job's node count; 0 when unknown.
	Nodes int
	// StartUnixNano is the wall clock at the trace's relative time zero,
	// on the recording node's clock; 0 when unknown.
	StartUnixNano int64
	// NodeOfRank maps each global rank to its node; nil when unknown.
	NodeOfRank []int32
	// Clock is the per-peer clock-offset sample history (heartbeat echoes).
	Clock []ClockSample
	// Links is the transport frame-event history (send/recv with link
	// sequence numbers, connection resets and reconnect replays),
	// timestamped in unix nanoseconds.
	Links []LinkEvent
}

// TraceDump is a trace read back from its binary dump: the recorded events
// plus the recording-time metadata an analyzer needs.
type TraceDump struct {
	NRanks  int
	Dropped int64
	Meta    TraceMeta
	Events  []Event
}

// WriteTraceBin dumps the trace in the versioned binary format, including
// any metadata attached with Trace.SetMeta.  Call it only after the
// recording ranks have stopped (the rings are single-writer).
func WriteTraceBin(w io.Writer, t *Trace) error {
	meta := t.Meta()
	return WriteTraceBinMeta(w, t.Events(), t.NRanks(), t.Dropped(), &meta)
}

// WriteTraceBinMeta dumps an event slice with explicit metadata (nil meta
// writes an unknown-node dump).
func WriteTraceBinMeta(w io.Writer, events []Event, nranks int, dropped int64, meta *TraceMeta) error {
	if nranks <= 0 {
		return fmt.Errorf("obs: trace dump needs a positive rank count, got %d", nranks)
	}
	var m TraceMeta
	if meta != nil {
		m = *meta
	} else {
		m.Node = -1
	}
	if len(m.NodeOfRank) != 0 && len(m.NodeOfRank) != nranks {
		return fmt.Errorf("obs: trace dump placement table has %d entries for %d ranks", len(m.NodeOfRank), nranks)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(traceBinMagic); err != nil {
		return err
	}
	var hdr [24 + traceBinMetaSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], traceBinVersion)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(nranks))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(dropped))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(len(events)))
	binary.LittleEndian.PutUint32(hdr[24:], uint32(int32(m.Node)))
	binary.LittleEndian.PutUint32(hdr[28:], uint32(int32(m.Nodes)))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(m.StartUnixNano))
	binary.LittleEndian.PutUint32(hdr[40:], uint32(len(m.NodeOfRank)))
	binary.LittleEndian.PutUint32(hdr[44:], uint32(len(m.Clock)))
	binary.LittleEndian.PutUint32(hdr[48:], uint32(len(m.Links)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	for _, n := range m.NodeOfRank {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], uint32(n))
		if _, err := bw.Write(b[:]); err != nil {
			return err
		}
	}
	var crec [traceBinClockSize]byte
	for _, s := range m.Clock {
		binary.LittleEndian.PutUint32(crec[0:], uint32(s.Peer))
		binary.LittleEndian.PutUint64(crec[4:], uint64(s.LocalUnixNano))
		binary.LittleEndian.PutUint64(crec[12:], uint64(s.OffsetNs))
		binary.LittleEndian.PutUint64(crec[20:], uint64(s.DelayNs))
		if _, err := bw.Write(crec[:]); err != nil {
			return err
		}
	}
	var lrec [traceBinLinkSize]byte
	for _, e := range m.Links {
		binary.LittleEndian.PutUint64(lrec[0:], uint64(e.TS))
		lrec[8] = byte(e.Kind)
		binary.LittleEndian.PutUint32(lrec[9:], uint32(e.Node))
		binary.LittleEndian.PutUint32(lrec[13:], uint32(e.Peer))
		binary.LittleEndian.PutUint64(lrec[17:], e.Seq)
		binary.LittleEndian.PutUint32(lrec[25:], uint32(e.Bytes))
		if _, err := bw.Write(lrec[:]); err != nil {
			return err
		}
	}
	var rec [traceBinRecSize]byte
	for _, e := range events {
		binary.LittleEndian.PutUint64(rec[0:], uint64(e.TS))
		binary.LittleEndian.PutUint64(rec[8:], uint64(e.Dur))
		binary.LittleEndian.PutUint64(rec[16:], uint64(e.Arg))
		binary.LittleEndian.PutUint32(rec[24:], uint32(e.Rank))
		binary.LittleEndian.PutUint32(rec[28:], uint32(e.Peer))
		rec[32] = byte(e.Kind)
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTraceBin parses a dump written by WriteTraceBin.  It validates the
// magic, the version, the placement table's size and the per-event rank
// range, and reports truncation as an error rather than returning a silently
// short trace.  No count read from the header sizes an allocation beyond
// maxTraceBinAlloc entries: a corrupt count fails on truncation instead.
func ReadTraceBin(r io.Reader) (*TraceDump, error) {
	br := bufio.NewReader(r)
	var hdr [32 + traceBinMetaSize]byte
	if _, err := io.ReadFull(br, hdr[:32]); err != nil {
		return nil, fmt.Errorf("obs: trace dump header: %w", err)
	}
	if string(hdr[:8]) != traceBinMagic {
		return nil, fmt.Errorf("obs: not a trace dump (bad magic %q)", hdr[:8])
	}
	if version := binary.LittleEndian.Uint32(hdr[8:]); version != traceBinVersion {
		return nil, fmt.Errorf("obs: trace dump version %d not supported (want %d)", version, traceBinVersion)
	}
	nranks := int(int32(binary.LittleEndian.Uint32(hdr[12:])))
	if nranks <= 0 {
		return nil, fmt.Errorf("obs: trace dump has invalid rank count %d", nranks)
	}
	nevents := binary.LittleEndian.Uint64(hdr[24:])
	mhdr := hdr[32:]
	if _, err := io.ReadFull(br, mhdr); err != nil {
		return nil, fmt.Errorf("obs: trace dump metadata header: %w", err)
	}
	d := &TraceDump{
		NRanks:  nranks,
		Dropped: int64(binary.LittleEndian.Uint64(hdr[16:])),
		Meta: TraceMeta{
			Node:          int(int32(binary.LittleEndian.Uint32(mhdr[0:]))),
			Nodes:         int(int32(binary.LittleEndian.Uint32(mhdr[4:]))),
			StartUnixNano: int64(binary.LittleEndian.Uint64(mhdr[8:])),
		},
	}
	nplace := binary.LittleEndian.Uint32(mhdr[16:])
	nclock := binary.LittleEndian.Uint32(mhdr[20:])
	nlink := binary.LittleEndian.Uint32(mhdr[24:])
	if nplace != 0 && int(nplace) != nranks {
		return nil, fmt.Errorf("obs: trace dump placement table has %d entries for %d ranks", nplace, nranks)
	}
	if nplace > 0 {
		d.Meta.NodeOfRank = make([]int32, 0, min(nplace, maxTraceBinAlloc))
		var b [4]byte
		for i := uint32(0); i < nplace; i++ {
			if _, err := io.ReadFull(br, b[:]); err != nil {
				return nil, fmt.Errorf("obs: trace dump placement table truncated at %d/%d: %w", i, nplace, err)
			}
			d.Meta.NodeOfRank = append(d.Meta.NodeOfRank, int32(binary.LittleEndian.Uint32(b[:])))
		}
	}
	d.Meta.Clock = make([]ClockSample, 0, min(nclock, maxTraceBinAlloc))
	var crec [traceBinClockSize]byte
	for i := uint32(0); i < nclock; i++ {
		if _, err := io.ReadFull(br, crec[:]); err != nil {
			return nil, fmt.Errorf("obs: trace dump clock samples truncated at %d/%d: %w", i, nclock, err)
		}
		d.Meta.Clock = append(d.Meta.Clock, ClockSample{
			Peer:          int32(binary.LittleEndian.Uint32(crec[0:])),
			LocalUnixNano: int64(binary.LittleEndian.Uint64(crec[4:])),
			OffsetNs:      int64(binary.LittleEndian.Uint64(crec[12:])),
			DelayNs:       int64(binary.LittleEndian.Uint64(crec[20:])),
		})
	}
	d.Meta.Links = make([]LinkEvent, 0, min(nlink, maxTraceBinAlloc))
	var lrec [traceBinLinkSize]byte
	for i := uint32(0); i < nlink; i++ {
		if _, err := io.ReadFull(br, lrec[:]); err != nil {
			return nil, fmt.Errorf("obs: trace dump link events truncated at %d/%d: %w", i, nlink, err)
		}
		d.Meta.Links = append(d.Meta.Links, LinkEvent{
			TS:    int64(binary.LittleEndian.Uint64(lrec[0:])),
			Kind:  LinkEventKind(lrec[8]),
			Node:  int32(binary.LittleEndian.Uint32(lrec[9:])),
			Peer:  int32(binary.LittleEndian.Uint32(lrec[13:])),
			Seq:   binary.LittleEndian.Uint64(lrec[17:]),
			Bytes: int32(binary.LittleEndian.Uint32(lrec[25:])),
		})
	}
	d.Events = make([]Event, 0, min(nevents, maxTraceBinAlloc))
	var rec [traceBinRecSize]byte
	for i := uint64(0); i < nevents; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("obs: trace dump truncated at event %d/%d: %w", i, nevents, err)
		}
		e := Event{
			TS:   int64(binary.LittleEndian.Uint64(rec[0:])),
			Dur:  int64(binary.LittleEndian.Uint64(rec[8:])),
			Arg:  int64(binary.LittleEndian.Uint64(rec[16:])),
			Rank: int32(binary.LittleEndian.Uint32(rec[24:])),
			Peer: int32(binary.LittleEndian.Uint32(rec[28:])),
			Kind: Kind(rec[32]),
		}
		if e.Rank < 0 || int(e.Rank) >= nranks {
			return nil, fmt.Errorf("obs: trace dump event %d has rank %d outside [0,%d)", i, e.Rank, nranks)
		}
		d.Events = append(d.Events, e)
	}
	return d, nil
}
