package ust

import (
	"io"

	"ust/internal/store"
)

// Persistence entry points: the compact, checksummed binary format that
// ustgen writes and ustserve loads. Databases are written in store
// format version 2 only; the readers also accept version-1 images and
// the JSON interchange form. These wrap internal/store.

// SaveDatabase writes db (default chain and all objects) in the binary
// store format — the columnar version 2, whose delta-encoded observation
// blocks both shrink the file and enable the zero-copy load path.
func SaveDatabase(w io.Writer, db *Database) error { return store.SaveDatabase(w, db) }

// LoadDatabase reads a database written by SaveDatabase, or a legacy
// version-1 image (integrity is CRC-verified before any parsing).
func LoadDatabase(r io.Reader) (*Database, error) { return store.LoadDatabase(r) }

// LoadDatabaseMapped decodes a complete in-memory store image. For
// version-2 images the observation probability column is adopted
// zero-copy when aligned: the returned database aliases data, which the
// caller must keep immutable for the database's lifetime. This is the
// fast path for callers that already hold the file bytes (an mmap, an
// HTTP upload body).
func LoadDatabaseMapped(data []byte) (*Database, error) { return store.LoadDatabaseMapped(data) }

// SaveChain writes a single motion model in the binary store format.
func SaveChain(w io.Writer, c *Chain) error { return store.SaveChain(w, c) }

// LoadChain reads a chain written by SaveChain.
func LoadChain(r io.Reader) (*Chain, error) { return store.LoadChain(r) }

// ImportDatabaseJSON reads a database from the JSON interchange form —
// verbose but diffable, and written by non-Go tooling. The library reads
// the form but does not write it: SaveDatabase is the storage format.
func ImportDatabaseJSON(r io.Reader) (*Database, error) { return store.ImportJSON(r) }
