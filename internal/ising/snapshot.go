package ising

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Snapshot is a point-in-time capture of one backend's chain state: the spin
// configuration, the serialized random-generator state, the colour-step
// counter and the simulation temperature. Because every engine in this
// repository draws its randoms as a pure function of (key, step, site), a
// snapshot plus the engine's deterministic update rule reproduce the rest of
// the chain bit-exactly — an engine restored from a snapshot in a fresh
// process continues exactly the run it was taken from (asserted by the
// checkpoint/resume determinism tests in internal/service).
type Snapshot struct {
	// Backend is the engine's registry name (ising.Backend.Name()); Restore
	// refuses a snapshot taken from a different engine type.
	Backend string
	// Rows and Cols are the lattice dimensions.
	Rows, Cols int
	// Temperature is the simulation temperature at capture time, in J/kB.
	Temperature float64
	// Step is the number of colour updates performed (Backend.Step()).
	Step uint64
	// RNG is the engine's serialized random-generator state (for the keyed
	// engines, the 8-byte Philox key).
	RNG []byte
	// Spins is the packed spin configuration: one bit per site in row-major
	// order, bit (i%8) of byte (i/8), set for spin +1. This is byte-for-byte
	// the multispin engine's word layout dumped little-endian, so the packed
	// engines snapshot without unpacking.
	Spins []byte
}

// Snapshotter is the optional extension of Backend implemented by engines
// that can checkpoint and restore their chain state. The simulation service
// (internal/service) checkpoints jobs through it every K sweeps, so a
// restarted daemon resumes bit-identically. The host engines implement it
// (checkerboard, gpusim, multispin, sharded).
type Snapshotter interface {
	Backend
	// Snapshot captures the chain state.
	Snapshot() (*Snapshot, error)
	// Restore replaces the chain state with one previously captured from an
	// engine of the same type and lattice size.
	Restore(*Snapshot) error
}

// snapshotMagic versions the encoded form; bump the trailing digit on layout
// changes.
var snapshotMagic = [8]byte{'I', 'S', 'N', 'A', 'P', 'V', '1', '\n'}

// PackedSpinBytes returns the size of the packed spin configuration of a
// rows x cols lattice.
func PackedSpinBytes(rows, cols int) int { return (rows*cols + 7) / 8 }

// EncodedSnapshotBytes returns the exact size of EncodeSnapshot's output for
// a snapshot with the given backend-name length, RNG-state length and lattice
// dimensions. internal/perf's checkpoint-traffic model reproduces this
// formula (asserted equal by test), so keep the two in sync.
func EncodedSnapshotBytes(nameLen, rngLen, rows, cols int) int {
	return len(snapshotMagic) + 2 + nameLen + 4 + 4 + 8 + 8 + 4 + rngLen + 4 + PackedSpinBytes(rows, cols)
}

// EncodeSnapshot serializes a snapshot (little-endian, magic-prefixed):
//
//	magic[8] | u16 len(name) name | u32 rows | u32 cols |
//	f64 temperature | u64 step | u32 len(rng) rng | u32 len(spins) spins
func EncodeSnapshot(s *Snapshot) []byte {
	out := make([]byte, 0, EncodedSnapshotBytes(len(s.Backend), len(s.RNG), s.Rows, s.Cols))
	out = append(out, snapshotMagic[:]...)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(s.Backend)))
	out = append(out, s.Backend...)
	out = binary.LittleEndian.AppendUint32(out, uint32(s.Rows))
	out = binary.LittleEndian.AppendUint32(out, uint32(s.Cols))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(s.Temperature))
	out = binary.LittleEndian.AppendUint64(out, s.Step)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(s.RNG)))
	out = append(out, s.RNG...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(s.Spins)))
	return append(out, s.Spins...)
}

// DecodeSnapshot parses a snapshot serialized by EncodeSnapshot.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	r := snapReader{data: data}
	var magic [8]byte
	copy(magic[:], r.bytes(8))
	if r.err == nil && magic != snapshotMagic {
		return nil, fmt.Errorf("ising: not a snapshot (bad magic %q)", magic[:])
	}
	s := &Snapshot{}
	s.Backend = string(r.bytes(int(r.u16())))
	s.Rows = int(r.u32())
	s.Cols = int(r.u32())
	s.Temperature = math.Float64frombits(r.u64())
	s.Step = r.u64()
	s.RNG = append([]byte(nil), r.bytes(int(r.u32()))...)
	s.Spins = append([]byte(nil), r.bytes(int(r.u32()))...)
	if r.err != nil {
		return nil, r.err
	}
	if len(r.data) != r.off {
		return nil, fmt.Errorf("ising: %d trailing bytes after snapshot", len(r.data)-r.off)
	}
	if s.Rows <= 0 || s.Cols <= 0 {
		return nil, fmt.Errorf("ising: snapshot has invalid lattice size %dx%d", s.Rows, s.Cols)
	}
	// Dimensions are attacker-controlled u32s: guard the rows*cols product
	// against int overflow before any size arithmetic trusts it. (The spin
	// payload itself was already bounds-checked against the input length, so
	// a huge claimed size can never allocate — it just fails here.)
	if s.Rows > (math.MaxInt-7)/s.Cols {
		return nil, fmt.Errorf("ising: snapshot lattice size %dx%d overflows", s.Rows, s.Cols)
	}
	if want := PackedSpinBytes(s.Rows, s.Cols); len(s.Spins) != want {
		return nil, fmt.Errorf("ising: snapshot has %d spin bytes, want %d for %dx%d", len(s.Spins), want, s.Rows, s.Cols)
	}
	return s, nil
}

// Check verifies that a snapshot belongs to the named engine at the given
// lattice size (the shared validation of every Restore implementation).
func (s *Snapshot) Check(backend string, rows, cols int) error {
	if s.Backend != backend {
		return fmt.Errorf("ising: snapshot was taken from backend %q, restoring into %q", s.Backend, backend)
	}
	if s.Rows != rows || s.Cols != cols {
		return fmt.Errorf("ising: snapshot is %dx%d, engine is %dx%d", s.Rows, s.Cols, rows, cols)
	}
	if want := PackedSpinBytes(rows, cols); len(s.Spins) != want {
		return fmt.Errorf("ising: snapshot has %d spin bytes, want %d", len(s.Spins), want)
	}
	if s.Temperature <= 0 {
		return fmt.Errorf("ising: snapshot temperature %g is not positive", s.Temperature)
	}
	return nil
}

// PackSpins returns the lattice's packed spin configuration in the Snapshot
// bit layout (one bit per site, row-major, LSB-first, set for +1).
func (l *Lattice) PackSpins() []byte {
	out := make([]byte, PackedSpinBytes(l.Rows, l.Cols))
	for i, s := range l.Spins {
		if s == 1 {
			out[i/8] |= 1 << (uint(i) % 8)
		}
	}
	return out
}

// UnpackSpins overwrites the lattice's spins from a packed configuration
// produced by PackSpins (or by a packed engine's snapshot).
func (l *Lattice) UnpackSpins(data []byte) error {
	if len(data) != PackedSpinBytes(l.Rows, l.Cols) {
		return fmt.Errorf("ising: packed spins are %d bytes, want %d for %dx%d",
			len(data), PackedSpinBytes(l.Rows, l.Cols), l.Rows, l.Cols)
	}
	for i := range l.Spins {
		if data[i/8]>>(uint(i)%8)&1 == 1 {
			l.Spins[i] = 1
		} else {
			l.Spins[i] = -1
		}
	}
	return nil
}

// snapReader is a cursor over an encoded snapshot that records the first
// out-of-bounds read instead of panicking.
type snapReader struct {
	data []byte
	off  int
	err  error
}

func (r *snapReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.data) {
		r.err = fmt.Errorf("ising: snapshot truncated at byte %d", r.off)
		return nil
	}
	out := r.data[r.off : r.off+n]
	r.off += n
	return out
}

func (r *snapReader) u16() uint16 {
	b := r.bytes(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *snapReader) u32() uint32 {
	b := r.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *snapReader) u64() uint64 {
	b := r.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}
