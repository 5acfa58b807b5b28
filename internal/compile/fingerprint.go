package compile

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
)

// fingerprintVersion is folded into every fingerprint so that compiler
// changes which alter generated code can invalidate cached artifacts by
// bumping one constant.
const fingerprintVersion = "queuemachine/compile/1"

// objectFormatVersion names the generation of the isa.Object wire shape a
// persisted artifact was written with. Bump it when the object format
// changes incompatibly; together with fingerprintVersion it makes
// ToolchainHash reject stale on-disk artifacts after either the compiler
// or the object format moves.
const objectFormatVersion = "queuemachine/isa-object/2"

// ToolchainHash identifies the compiler generation and object format as
// one opaque version string. Disk-persisted artifact caches key their
// storage by it: an artifact written under a different toolchain hash is
// unreadable by construction, so a binary upgrade can never deserialize a
// stale format — it just recompiles and rewrites.
func ToolchainHash() string {
	h := sha256.Sum256([]byte("toolchain\x00" + fingerprintVersion + "\x00" + objectFormatVersion))
	return hex.EncodeToString(h[:])
}

// Fingerprint is the content address of a compilation: the hex SHA-256 of
// the source text and the full option set. Two compilations with equal
// fingerprints produce interchangeable artifacts, so the fingerprint is a
// safe cache key for compiled objects.
func Fingerprint(src string, opts Options) string {
	h := sha256.New()
	io.WriteString(h, fingerprintVersion)
	// Length-prefix the source so no option encoding can collide with
	// source bytes.
	fmt.Fprintf(h, "\x00%d\x00", len(src))
	io.WriteString(h, src)
	fmt.Fprintf(h, "\x00opts:%t,%t,%t,%t",
		opts.NoInputOrder, opts.NoLiveFilter, opts.NoPriority, opts.NoConstFold)
	return hex.EncodeToString(h.Sum(nil))
}
