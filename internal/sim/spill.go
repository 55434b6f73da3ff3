package sim

import (
	"encoding/binary"
	"fmt"
	"os"
)

// This file is the trace's spill-to-disk backend. Long executions that keep
// their full event history — the n = 4000 protocol-comparison runs record
// hundreds of millions of events over ~190k rounds — pay ~21 B of resident
// memory per event in the columnar store. Spilling moves sealed chunks to a
// temp file as they fill and rehydrates them on demand through a one-chunk
// cache, so resident trace memory stays bounded by the retention window
// while every read path (Len/At/Events/ByKind/ByNode/WriteJSON and the
// lbspec checker) sees the identical event sequence; spill_test.go pins the
// WriteJSON output byte-identical to an unspilled trace.
//
// Only full (sealed) chunks are ever on disk, so the file is an array of
// fixed-size records indexed by absolute chunk number: chunk k lives at
// offset k·spillChunkBytes whether or not its predecessors were spilled
// (unspilled chunks just leave holes, which the filesystem keeps sparse).
// The sparse payload side table stays in memory — payload-carrying events
// (bcast inputs) are rare and their values are opaque interface values.

// spillChunkBytes is the on-disk size of one sealed chunk: five columns of
// eventChunkLen entries (round, node, from int32; kind one byte; msgID
// int64), little-endian, concatenated column-wise.
const spillChunkBytes = eventChunkLen * (4 + 4 + 1 + 4 + 8)

// traceSpill is the spill state of one eventStore.
type traceSpill struct {
	f *os.File
	// retain is how many sealed chunks stay in memory behind the active
	// chunk before the flusher moves them to disk.
	retain int
	// err latches the first write failure: spilling stops (chunks simply
	// stay in memory, correctness unaffected) and SpillError reports it.
	err error
	// cacheIdx/cache is the one-chunk rehydration cache (absolute chunk
	// index, -1 empty). Trace reads are single-threaded per the Trace
	// contract, and every walk is ascending, so one slot suffices.
	cacheIdx int
	cache    *eventChunk
	buf      [spillChunkBytes]byte
}

// spillRetainDefault is the default in-memory retention window (sealed
// chunks behind the active one). Two chunks keep the recent tail — what
// incremental consumers scan between rounds — off the disk path.
const spillRetainDefault = 2

// SpillToDisk redirects sealed event chunks to an unnamed temp file in dir
// (dir "" = the system temp directory), bounding the trace's resident
// event memory to the retention window plus one chunk being filled.
// Enable before or during a run; already-sealed chunks are moved at the
// next seal. Every read path transparently rehydrates spilled chunks, so
// consumers are unaffected; CloseSpill releases the file when the trace is
// no longer needed. A write failure latches (see SpillError): spilling
// stops and subsequent chunks stay in memory, never corrupting the trace.
func (tr *Trace) SpillToDisk(dir string) error {
	if tr.store.spill != nil {
		return fmt.Errorf("sim: trace already spilling")
	}
	f, err := os.CreateTemp(dir, "lbcast-trace-*.spill")
	if err != nil {
		return fmt.Errorf("sim: creating spill file: %w", err)
	}
	// Unlink immediately: the file lives until CloseSpill (or process
	// exit) and can never be leaked on a crash.
	os.Remove(f.Name())
	tr.store.spill = &traceSpill{f: f, retain: spillRetainDefault, cacheIdx: -1}
	return nil
}

// SpillError returns the latched write error, if spilling has failed. The
// trace itself remains fully usable — chunks that could not be written
// stayed in memory.
func (tr *Trace) SpillError() error {
	if sp := tr.store.spill; sp != nil {
		return sp.err
	}
	return nil
}

// CloseSpill stops spilling and closes the backing file. Events whose
// chunks were moved to disk become inaccessible — callers finish reading
// (WriteJSON, checkers) first. Safe to call when spilling was never
// enabled.
func (tr *Trace) CloseSpill() error {
	sp := tr.store.spill
	if sp == nil {
		return nil
	}
	tr.store.spill = nil
	return sp.f.Close()
}

// maybeSpill is called by the append paths when a chunk seals. It moves
// every sealed in-memory chunk older than the retention window to disk and
// drops the in-memory copy.
func (s *eventStore) maybeSpill() {
	sp := s.spill
	if sp == nil || sp.err != nil {
		return
	}
	// Slice indices [0, lim) are sealed and beyond the retention window;
	// the last entry is the active chunk.
	lim := len(s.chunks) - 1 - sp.retain
	for j := 0; j < lim; j++ {
		c := s.chunks[j]
		if c == nil {
			continue // already on disk (or released by DiscardBefore's shift)
		}
		if err := sp.writeChunk(j+s.droppedChunks, c); err != nil {
			sp.err = err
			return
		}
		s.chunks[j] = nil
	}
}

// writeChunk encodes one sealed chunk at its fixed file slot.
func (sp *traceSpill) writeChunk(abs int, c *eventChunk) error {
	buf := sp.buf[:]
	off := 0
	for _, v := range c.round {
		binary.LittleEndian.PutUint32(buf[off:], uint32(v))
		off += 4
	}
	for _, v := range c.node {
		binary.LittleEndian.PutUint32(buf[off:], uint32(v))
		off += 4
	}
	for _, v := range c.kind {
		buf[off] = byte(v)
		off++
	}
	for _, v := range c.from {
		binary.LittleEndian.PutUint32(buf[off:], uint32(v))
		off += 4
	}
	for _, v := range c.msgID {
		binary.LittleEndian.PutUint64(buf[off:], uint64(v))
		off += 8
	}
	if _, err := sp.f.WriteAt(buf, int64(abs)*spillChunkBytes); err != nil {
		return fmt.Errorf("sim: spilling trace chunk %d: %w", abs, err)
	}
	if sp.cacheIdx == abs {
		sp.cacheIdx = -1 // never stale, but keep the invariant obvious
	}
	return nil
}

// readChunk rehydrates the chunk at absolute index abs through the cache.
func (sp *traceSpill) readChunk(abs int) (*eventChunk, error) {
	if sp.cacheIdx == abs {
		return sp.cache, nil
	}
	buf := sp.buf[:]
	if _, err := sp.f.ReadAt(buf, int64(abs)*spillChunkBytes); err != nil {
		return nil, fmt.Errorf("sim: rehydrating trace chunk %d: %w", abs, err)
	}
	c := sp.cache
	if c == nil {
		c = newEventChunk()
		sp.cache = c
	}
	c.round, c.node = c.round[:eventChunkLen], c.node[:eventChunkLen]
	c.kind = c.kind[:eventChunkLen]
	c.from, c.msgID = c.from[:eventChunkLen], c.msgID[:eventChunkLen]
	off := 0
	for j := range c.round {
		c.round[j] = int32(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
	}
	for j := range c.node {
		c.node[j] = int32(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
	}
	for j := range c.kind {
		c.kind[j] = EventKind(buf[off])
		off++
	}
	for j := range c.from {
		c.from[j] = int32(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
	}
	for j := range c.msgID {
		c.msgID[j] = MsgID(binary.LittleEndian.Uint64(buf[off:]))
		off += 8
	}
	sp.cacheIdx = abs
	return c, nil
}

// chunk returns the chunk at slice index j, rehydrating from the spill file
// when the in-memory copy was dropped. Read failures panic — the engine's
// read paths (At, Events) have no error channel, and a vanished spill file
// is a programming error (CloseSpill before the last read), not a
// recoverable condition.
func (s *eventStore) chunk(j int) *eventChunk {
	if c := s.chunks[j]; c != nil {
		return c
	}
	if s.spill == nil {
		panic(fmt.Sprintf("sim: trace chunk %d was spilled and the spill backend is closed", j+s.droppedChunks))
	}
	c, err := s.spill.readChunk(j + s.droppedChunks)
	if err != nil {
		panic(err)
	}
	return c
}
