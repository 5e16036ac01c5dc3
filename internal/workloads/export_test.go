package workloads

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"sort"

	"repro/internal/classfile"
)

// Hooks on the program store for the external test package (package
// workloads_test), whose tests run the harness, which imports this
// package.

// ClearPrograms empties the program store.
func ClearPrograms() { programs.Clear() }

// ProgramDigests returns a digest of every stored class, by key: the
// hash of its classfile encoding, which covers every field of a class.
func ProgramDigests() (map[string][32]byte, error) {
	out := make(map[string][32]byte)
	var err error
	programs.Range(func(k string, cls *classfile.Class) {
		enc, eerr := classfile.AppendClass(nil, cls)
		if eerr != nil {
			err = eerr
		}
		out[k] = sha256.Sum256(enc)
	})
	return out, err
}

// StalePrograms decodes every stored key back into its workload,
// generates the workload's class afresh, and names the workloads whose
// stored class differs from it.
func StalePrograms() ([]string, error) {
	var stale []string
	var err error
	programs.Range(func(k string, cls *classfile.Class) {
		w, derr := decodeProgramKey(k)
		if derr != nil {
			err = derr
			return
		}
		if string(programKey(nil, w)) != k {
			err = fmt.Errorf("key of %s does not round-trip", w.Name)
			return
		}
		fresh, gerr := generate(w)
		if gerr != nil {
			err = fmt.Errorf("regenerating %s: %w", w.Name, gerr)
			return
		}
		if !reflect.DeepEqual(cls, fresh) {
			stale = append(stale, fmt.Sprintf("%s/%d", w.Name, w.Threads))
		}
	})
	sort.Strings(stale)
	return stale, err
}

// PlantProgramWrite writes into one stored class, as a caller that
// wrote a shared Program class would, and returns the function that
// undoes the write.
func PlantProgramWrite() (undo func(), ok bool) {
	var keys []string
	stored := map[string]*classfile.Class{}
	programs.Range(func(k string, cls *classfile.Class) {
		keys = append(keys, k)
		stored[k] = cls
	})
	if len(keys) == 0 {
		return nil, false
	}
	sort.Strings(keys)
	m := stored[keys[0]].Methods[0]
	m.MaxStack++
	return func() { m.MaxStack-- }, true
}

// decodeProgramKey inverts programKey.
func decodeProgramKey(k string) (Workload, error) {
	b := []byte(k)
	bad := false
	uvarint := func() uint64 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			bad = true
			return 0
		}
		b = b[n:]
		return v
	}
	varint := func() int {
		v, n := binary.Varint(b)
		if n <= 0 {
			bad = true
			return 0
		}
		b = b[n:]
		return int(v)
	}
	str := func() string {
		n := uvarint()
		if bad || n > uint64(len(b)) {
			bad = true
			return ""
		}
		s := string(b[:n])
		b = b[n:]
		return s
	}
	w := Workload{Name: str(), ClassName: str(), OuterIters: varint(), Threads: varint(), OpsPerIter: uvarint()}
	n := uvarint()
	for i := uint64(0); i < n && !bad; i++ {
		w.Phases = append(w.Phases, Phase{Kind: str(), Calls: varint(), Work: varint(), Size: varint(),
			Depth: varint(), JNIEvery: varint(), CallbacksPerNative: varint(), CallbackWork: varint()})
	}
	if bad || len(b) != 0 {
		return Workload{}, errors.New("malformed program key")
	}
	return w, nil
}
