package vm

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"reflect"
	"sort"

	"repro/internal/classfile"
)

// Hooks for the external test package (package vm_test), whose tests need
// the workload and scenario catalogues that import this package.
var (
	RunOps            = runOps
	TrapThrown        = trapThrown
	GenProgram        = genProgram
	GenLoopProgram    = genLoopProgram
	GenOSRLoopProgram = genOSRLoopProgram
)

// ClearImages empties the class image store.
func ClearImages() { images.Clear() }

// ImageDigests returns a digest of the content of every stored class
// image, by key.
func ImageDigests() map[string][32]byte {
	out := make(map[string][32]byte)
	images.Range(func(k string, img []methodImage) { out[k] = imageDigest(img) })
	return out
}

// StaleImages checks every stored image stored with no test defect armed
// against a fresh build of its key's class, and names the classes whose
// stored image differs.
func StaleImages() ([]string, error) {
	var stale []string
	var err error
	images.Range(func(k string, img []methodImage) {
		if k[0] != 0 || err != nil {
			return
		}
		def, rerr := classfile.ReadClass(bytes.NewReader([]byte(k[1:])))
		if rerr != nil {
			err = rerr
			return
		}
		fresh, berr := buildImage(def)
		if berr != nil {
			err = fmt.Errorf("rebuilding %s: %w", def.Name, berr)
			return
		}
		if imageDigest(img) != imageDigest(fresh) {
			stale = append(stale, def.Name)
		}
	})
	sort.Strings(stale)
	return stale, err
}

// PlantImageWrite writes into the lowering of one stored image, as a VM
// that wrote a shared jit.Unit would, and returns the function that
// undoes the write. ok is false when no stored image has a lowered block.
func PlantImageWrite() (undo func(), ok bool) {
	stored := map[string][]methodImage{}
	images.Range(func(k string, img []methodImage) { stored[k] = img })
	keys := make([]string, 0, len(stored))
	for k := range stored {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, mi := range stored[k] {
			if mi.lowered != nil && len(mi.lowered.Blocks) > 0 {
				b := &mi.lowered.Blocks[0]
				b.NInstr++
				return func() { b.NInstr-- }, true
			}
		}
	}
	return nil, false
}

func imageDigest(img []methodImage) [32]byte {
	h := sha256.New()
	digest(h, reflect.ValueOf(img))
	return [32]byte(h.Sum(nil))
}

// digest writes v's content, following pointers and slices, to h.
func digest(h hash.Hash, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			h.Write([]byte{0})
			return
		}
		h.Write([]byte{1})
		digest(h, v.Elem())
	case reflect.Slice, reflect.Array:
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(v.Len())))
		for i := 0; i < v.Len(); i++ {
			digest(h, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			digest(h, v.Field(i))
		}
	case reflect.Bool:
		if v.Bool() {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(v.Int())))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		h.Write(binary.LittleEndian.AppendUint64(nil, v.Uint()))
	case reflect.String:
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(v.Len())))
		h.Write([]byte(v.String()))
	default:
		panic("digest: unhandled kind " + v.Kind().String())
	}
}
