// Package runcache persists resolved simulation results across process
// invocations. It is the L2 behind the experiment engine's in-memory
// memo cache: once a spec has been simulated by any bpsim invocation,
// every later invocation replays the stored result instead of
// re-simulating it.
//
// The store is deliberately simple and crash-safe:
//
//   - One file per entry, named by the entry's key hash, written with
//     write-temp + rename so concurrent processes sharing a directory
//     never observe a torn entry (the last writer of a key wins, and
//     every writer of a key writes identical deterministic content).
//   - Entries live in a per-schema subdirectory. Opening a directory
//     with a new schema version starts empty — stale entries are
//     invalidated by construction and can never alias a current key.
//   - All entries load at Open; Get and Put are memory-speed afterward
//     (Put additionally writes through to disk).
//   - Each file is one header line naming the schema ID, the key and
//     the CRC-32 of the value, followed by the raw value bytes. Files
//     whose header is malformed or names another schema or key, or
//     whose value fails its checksum, are quarantined (renamed with a
//     ".corrupt" suffix) rather than trusted or deleted. The header is
//     compared byte for byte, so no single flipped bit anywhere in a
//     file can load.
package runcache

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
)

// Stats counts store traffic since Open.
type Stats struct {
	Loaded      int // entries read at Open
	Quarantined int // corrupt files renamed aside at Open
	Hits        int // Get calls that found an entry
	Misses      int // Get calls that did not
	Puts        int // entries written
	PutErrors   int // writes that failed (entry kept in memory only)
}

// Store is an on-disk map from key hash to an opaque byte value, with
// an in-memory mirror loaded at Open. Safe for concurrent use within a
// process; safe to share a directory across processes.
type Store struct {
	dir   string // per-schema subdirectory actually holding entries
	id    string // schemaID of the store's schema, recorded in every entry header
	keyer Keyer

	// fault, when set, intercepts entry bytes on their way to disk —
	// the chaos layer's corruption/ENOSPC seam. Never touches the
	// in-memory copy. Set once before concurrent use (SetFileFault).
	fault FileFault

	mu      sync.Mutex
	entries map[string][]byte
	stats   Stats
}

// FileFault intercepts an entry's serialized bytes just before the
// write-temp+rename. It may return altered bytes (simulated
// corruption: the checksum must catch it at the next Open) or an error
// (simulated full disk: counted as a PutError, entry kept in memory).
// chaos.CacheFaults implements it; production stores never set one.
type FileFault interface {
	WriteEntry(key string, raw []byte) ([]byte, error)
}

// entryFormat versions the on-disk entry file format. It is folded
// into schemaID, so bumping it supersedes every directory written
// under the old format — Open starts them empty and `-cache-gc` sweeps
// them, exactly like a schema change. Format 2 added the CRC field;
// format 3 replaced the JSON envelope with a header line.
const entryFormat = 3

// An entry file, named <key>.entry, is one header line followed by the
// raw value bytes:
//
//	xorbp-runcache <schemaID> <key> <crc32>\n<value>
//
// The schema ID and key are recorded redundantly (the subdirectory and
// filename imply them) so a misplaced or tampered file is detected and
// quarantined at load; the CRC is the IEEE CRC-32 of the value as
// exactly crcDigits lowercase hex digits, verified at load so silent
// corruption cannot replay as a wrong result. The header names the
// schema by its short ID, not its full (kilobyte-long) signature.
const (
	entryMagic  = "xorbp-runcache"
	entrySuffix = ".entry"
	crcDigits   = 8
)

// encodeEntry renders the file bytes of one entry.
func encodeEntry(id, key string, value []byte) []byte {
	raw := make([]byte, 0, len(entryMagic)+len(id)+len(key)+crcDigits+4+len(value))
	raw = append(raw, entryMagic...)
	raw = append(raw, ' ')
	raw = append(raw, id...)
	raw = append(raw, ' ')
	raw = append(raw, key...)
	raw = append(raw, ' ')
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(value))
	raw = hex.AppendEncode(raw, crc[:])
	raw = append(raw, '\n')
	return append(raw, value...)
}

// parseEntry returns the value of an entry file whose header names
// schema ID id and key exactly and whose CRC matches the value. Any
// other byte string — a malformed header, another schema or key, a
// CRC that is not exactly crcDigits lowercase hex digits or does not
// match — is rejected. The value aliases raw.
func parseEntry(raw []byte, id, key string) ([]byte, bool) {
	rest, ok := cutField(raw, entryMagic)
	if ok {
		rest, ok = cutField(rest, id)
	}
	if ok {
		rest, ok = cutField(rest, key)
	}
	if !ok || len(rest) <= crcDigits || rest[crcDigits] != '\n' {
		return nil, false
	}
	var crc uint32
	for _, c := range rest[:crcDigits] {
		switch {
		case '0' <= c && c <= '9':
			crc = crc<<4 | uint32(c-'0')
		case 'a' <= c && c <= 'f':
			crc = crc<<4 | uint32(c-'a'+10)
		default:
			return nil, false
		}
	}
	value := rest[crcDigits+1:]
	if crc != crc32.ChecksumIEEE(value) {
		return nil, false
	}
	return value, true
}

// cutField strips field and the space that follows it from the front
// of b, reporting whether both were there.
func cutField(b []byte, field string) ([]byte, bool) {
	if len(b) <= len(field) || string(b[:len(field)]) != field || b[len(field)] != ' ' {
		return nil, false
	}
	return b[len(field)+1:], true
}

// DefaultDir returns the conventional cache directory shared by the
// CLIs — ~/.cache/xorbp via the platform cache dir — or "" when no home
// is resolvable, which callers treat as cache-disabled.
func DefaultDir() string {
	dir, err := os.UserCacheDir()
	if err != nil {
		return ""
	}
	return filepath.Join(dir, "xorbp")
}

// Key derives the store key for a payload under a schema: the hex SHA-256
// of both. Including the schema means entries from different schema
// versions can never collide on a name.
func Key(schema string, payload []byte) string {
	h := sha256.New()
	h.Write([]byte(schema))
	h.Write([]byte{0})
	h.Write(payload)
	return hex.EncodeToString(h.Sum(nil))
}

// Keyer derives Key(schema, payload) for one fixed schema from a
// SHA-256 midstate taken after the schema prefix, so the (often
// kilobyte-long) schema is hashed once rather than once per key. The
// keys are byte-identical to Key's. A Keyer is immutable and safe for
// concurrent use.
type Keyer struct {
	state []byte // marshalled SHA-256 state after schema and its separator
}

// NewKeyer returns the Keyer for schema.
func NewKeyer(schema string) Keyer {
	h := sha256.New()
	h.Write([]byte(schema))
	h.Write([]byte{0})
	state, err := h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		// crypto/sha256 always marshals its own state.
		panic(fmt.Sprintf("runcache: saving SHA-256 state: %v", err))
	}
	return Keyer{state: state}
}

// Key returns Key(schema, payload) for the Keyer's schema.
func (k Keyer) Key(payload []byte) string {
	h := sha256.New()
	if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(k.state); err != nil {
		// The state came from NewKeyer; only a zero Keyer fails here.
		panic(fmt.Sprintf("runcache: restoring SHA-256 state: %v", err))
	}
	h.Write(payload)
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0]))
}

// schemaID is the directory-name-safe digest of a schema string (the
// full string can be hundreds of characters of type signature). The
// entry file format version is folded in, so an entry-format change
// invalidates old directories exactly like a schema change: Open never
// sees old-format files, and GC treats their directories as
// superseded.
func schemaID(schema string) string {
	sum := sha256.Sum256([]byte("fmt" + strconv.Itoa(entryFormat) + "\x00" + schema))
	return "v-" + hex.EncodeToString(sum[:8])
}

// Open loads (creating if necessary) the store for one schema version
// under dir. Entries written under other schema versions are left
// untouched in their own subdirectories.
func Open(dir, schema string) (*Store, error) {
	id := schemaID(schema)
	sub := filepath.Join(dir, id)
	if err := os.MkdirAll(sub, 0o755); err != nil {
		return nil, fmt.Errorf("runcache: %w", err)
	}
	names, err := os.ReadDir(sub)
	if err != nil {
		return nil, fmt.Errorf("runcache: %w", err)
	}
	s := &Store{
		dir:     sub,
		id:      id,
		keyer:   NewKeyer(schema),
		entries: make(map[string][]byte, len(names)),
	}
	// Values are carved from shared slabs rather than allocated one per
	// file: each file is read into the free tail of the current slab and
	// kept there only if it parses.
	var slab []byte
	for _, de := range names {
		name := de.Name()
		// Skip in-progress writes from concurrent processes and anything
		// already quarantined.
		key, isEntry := strings.CutSuffix(name, entrySuffix)
		if de.IsDir() || !isEntry || strings.HasPrefix(name, ".") {
			continue
		}
		path := sub + string(filepath.Separator) + name
		raw, err := readFile(path, &slab)
		if err != nil {
			continue // racing writer or remover, or permissions; none is corruption
		}
		value, ok := parseEntry(raw, id, key)
		if !ok {
			s.quarantine(path)
			continue
		}
		slab = slab[:len(slab)+len(raw)]
		// Cap the value so an append by a caller cannot run into the
		// next value in the slab.
		s.entries[key] = value[:len(value):len(value)]
		s.stats.Loaded++
	}
	return s, nil
}

// slabSize is the size of the slabs Open reads entry files into; a
// result entry is about half a kilobyte.
const slabSize = 64 << 10

// readFile reads the file at path to EOF into the free tail of *slab
// (past its length) and returns the bytes read. A file that outgrows
// the free tail moves, with what was read of it, into a fresh slab,
// which replaces *slab. One open, reads until a zero-length read, and
// one close: no os.File, no poller registration and no stat.
func readFile(path string, slab *[]byte) ([]byte, error) {
	fd, err := syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	if err != nil {
		return nil, err
	}
	b, n := *slab, 0 // the file's bytes are b[len(b):len(b)+n]
	for {
		if len(b)+n == cap(b) {
			grown := make([]byte, 0, max(slabSize, 2*n))
			grown = append(grown, b[len(b):len(b)+n]...)
			b = grown[:0]
			*slab = b
		}
		m, err := syscall.Read(fd, b[len(b)+n:cap(b)])
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			_ = syscall.Close(fd)
			return nil, err
		}
		if m == 0 {
			break
		}
		n += m
	}
	if err := syscall.Close(fd); err != nil {
		return nil, err
	}
	return b[len(b) : len(b)+n], nil
}

// quarantine renames a corrupt entry aside so it is neither trusted nor
// re-examined on every Open. A failed rename (e.g. the file vanished
// under a concurrent process) is ignored.
func (s *Store) quarantine(path string) {
	if os.Rename(path, path+".corrupt") == nil {
		s.stats.Quarantined++
	}
}

// Contains reports whether key is present, without touching the
// hit/miss counters — for planners probing what a run will replay, as
// distinct from the engine actually consuming entries.
func (s *Store) Contains(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[key]
	return ok
}

// Get returns the stored value for key, if present.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.entries[key]
	if ok {
		s.stats.Hits++
	} else {
		s.stats.Misses++
	}
	return v, ok
}

// Put stores value under key, writing through to disk atomically
// (write-temp + rename). The entry is kept in memory even if the disk
// write fails — the caller already paid for the result — and the failure
// is reported and counted.
func (s *Store) Put(key string, value []byte) error {
	raw := encodeEntry(s.id, key, value)
	s.mu.Lock()
	s.entries[key] = value
	s.stats.Puts++
	s.mu.Unlock()
	if err := s.writeFile(key, raw); err != nil {
		s.mu.Lock()
		s.stats.PutErrors++
		s.mu.Unlock()
		return err
	}
	return nil
}

// SetFileFault installs a write-path fault hook (chaos testing only).
// Set before the store sees concurrent traffic.
func (s *Store) SetFileFault(f FileFault) { s.fault = f }

func (s *Store) writeFile(key string, raw []byte) error {
	if s.fault != nil {
		var err error
		if raw, err = s.fault.WriteEntry(key, raw); err != nil {
			return fmt.Errorf("runcache: %w", err)
		}
	}
	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("runcache: %w", err)
	}
	if _, err := tmp.Write(raw); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("runcache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("runcache: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, key+entrySuffix)); err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("runcache: %w", err)
	}
	return nil
}

// PutBinary stores an opaque binary payload under key. Entry values
// are raw bytes, so a binary payload (e.g. a simulator snapshot) is
// stored as is, under the same header, checksum and quarantine rules
// as a result.
func (s *Store) PutBinary(key string, data []byte) error { return s.Put(key, data) }

// GetBinary returns the binary payload stored under key via PutBinary.
func (s *Store) GetBinary(key string) ([]byte, bool) { return s.Get(key) }

// Key derives the store key for a payload under this store's schema.
func (s *Store) Key(payload []byte) string { return s.keyer.Key(payload) }

// Len returns the number of entries currently loaded.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Stats returns a snapshot of the traffic counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Dir returns the per-schema directory holding this store's entries.
func (s *Store) Dir() string { return s.dir }
