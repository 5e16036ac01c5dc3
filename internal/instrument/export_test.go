package instrument

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"sort"

	"repro/internal/classfile"
)

// Hooks on the rewrite store for the external test package (package
// instrument_test), whose tests run the harness, which imports this
// package through the IPA agent.

// ClearRewrites empties the rewrite store.
func ClearRewrites() { rewrites.Clear() }

// RewriteDigests returns a digest of every stored rewrite, by key: the
// hash of the class's encoding, which covers every field of a class,
// and of its wrapped-method count.
func RewriteDigests() (map[string][32]byte, error) {
	out := make(map[string][32]byte)
	var err error
	rewrites.Range(func(k string, r rewrite) {
		enc, eerr := classfile.AppendClass(binary.AppendUvarint(nil, uint64(r.wrapped)), r.class)
		if eerr != nil {
			err = eerr
		}
		out[k] = sha256.Sum256(enc)
	})
	return out, err
}

// StaleRewrites decodes every stored key back into its configuration
// and input class, rewrites the class afresh, and names the classes
// whose stored rewrite differs from it.
func StaleRewrites() ([]string, error) {
	var stale []string
	var err error
	rewrites.Range(func(k string, r rewrite) {
		c, cfg, derr := decodeRewriteKey(k)
		if derr != nil {
			err = derr
			return
		}
		fresh, wrapped, rerr := rewriteClass(c, cfg)
		if rerr != nil {
			err = fmt.Errorf("rewriting %s again: %w", c.Name, rerr)
			return
		}
		if wrapped != r.wrapped || !reflect.DeepEqual(fresh, r.class) {
			stale = append(stale, c.Name)
		}
	})
	sort.Strings(stale)
	return stale, err
}

// PlantRewriteWrite writes into one stored rewrite, as a VM or agent
// that wrote a shared class would, and returns the function that undoes
// the write.
func PlantRewriteWrite() (undo func(), ok bool) {
	var keys []string
	stored := map[string]rewrite{}
	rewrites.Range(func(k string, r rewrite) {
		keys = append(keys, k)
		stored[k] = r
	})
	if len(keys) == 0 {
		return nil, false
	}
	sort.Strings(keys)
	m := stored[keys[0]].class.Methods[0]
	m.MaxLocals++
	return func() { m.MaxLocals-- }, true
}

// decodeRewriteKey inverts rewriteKey.
func decodeRewriteKey(k string) (*classfile.Class, Config, error) {
	b := []byte(k)
	var s [2]string
	for i := range s {
		n, w := binary.Uvarint(b)
		if w <= 0 || n > uint64(len(b)-w) {
			return nil, Config{}, errors.New("malformed rewrite key")
		}
		s[i] = string(b[w : w+int(n)])
		b = b[w+int(n):]
	}
	c, err := classfile.ReadClass(bytes.NewReader(b))
	return c, Config{Prefix: s[0], RuntimeClass: s[1]}, err
}
