// Canonical request hashing: the content address of a result. A
// request is serialized to canonical JSON — object keys sorted, number
// text preserved — so the hash depends only on the request's semantic
// content, never on struct field declaration order or the spelling of
// the original JSON. The result cache key binds (kind, canonical
// hash, seed, build version): identical requests on the same build
// return identical cached bytes, and a rebuilt server never serves
// stale results across versions.
package api

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime/debug"
)

// CanonicalJSON returns v's canonical serialization: v is marshaled,
// re-decoded with number text preserved (uint64 seeds survive intact),
// and re-marshaled — Go marshals map keys in sorted order, so the
// bytes are independent of struct field order.
func CanonicalJSON(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var tree any
	if err := dec.Decode(&tree); err != nil {
		return nil, err
	}
	return json.Marshal(tree)
}

// Hash returns the SHA-256 hex digest of v's canonical JSON.
func Hash(v any) (string, error) {
	b, err := CanonicalJSON(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return fmt.Sprintf("%x", sum), nil
}

// ResultKey derives a result's content address from the request kind,
// the canonical request hash, the trace seed, and the build version.
// Seeds already embedded in a canonical spec make the hash unique on
// their own; the explicit seed component keeps request-level seed
// overrides addressable without re-canonicalizing.
func ResultKey(kind, canonicalHash string, seed uint64, buildVersion string) string {
	sum := sha256.Sum256(fmt.Appendf(nil, "%s\x00%s\x00%d\x00%s", kind, canonicalHash, seed, buildVersion))
	return fmt.Sprintf("%x", sum)
}

// BuildVersion identifies the running build for cache keying: the VCS
// revision when the binary was built from a checkout (with a "-dirty"
// suffix for modified trees), "dev" otherwise.
func BuildVersion() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "dev"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "dev"
	}
	if dirty {
		return rev + "-dirty"
	}
	return rev
}

// keyable is the canonical form each request reduces to before
// hashing: the kind tag plus the fully resolved, defaulted payload.
// Two requests that resolve to the same payload — a registry name vs
// the identical inline spec, an omitted field vs its explicit default
// — share a hash and therefore a cache entry.
type keyable struct {
	Kind    string `json:"kind"`
	Payload any    `json:"payload"`
}

// RequestKey computes req's full result-cache key under the given
// build version: ResultKey over the canonical payload hash.
func RequestKey(req Request, buildVersion string) (string, error) {
	_, key, err := resolveKey(req, buildVersion)
	return key, err
}

// resolveKey resolves req once and keys its job: the one resolve and
// the one canonical hash a request costs.
func resolveKey(req Request, buildVersion string) (job, string, error) {
	j, err := req.resolve()
	if err != nil {
		return job{}, "", err
	}
	h, err := Hash(keyable{Kind: j.kind, Payload: j.payload})
	if err != nil {
		return job{}, "", err
	}
	return j, ResultKey(j.kind, h, j.seed, buildVersion), nil
}
