// Package keytest checks that a cell identity type's key covers every
// field: tests of the packages that declare identity types call
// CheckLeaves on them.
package keytest

import (
	"reflect"
	"testing"

	"repro/internal/checkpoint"
)

// CheckLeaves proves that checkpoint.CellKey moves for every leaf field
// of identity's type. The base is the type's zero value with a slice of
// one zero element wherever a slice is keyed; each bool, integer and
// string leaf reachable from it through structs and slice elements is
// set, one at a time, to a non-zero value, and the key must differ from
// the base's. The leaves are found by reflection over the fields
// encoding/json encodes, so fields added later are covered too.
func CheckLeaves(t testing.TB, identity any) {
	t.Helper()
	typ := reflect.TypeOf(identity)
	base := reflect.New(typ).Elem()
	var leaves []leaf
	collect(t, base, typ.String(), &leaves)
	if len(leaves) == 0 {
		t.Fatalf("%s has no keyed leaf field", typ)
	}
	key := func() string {
		k, err := checkpoint.CellKey(base.Interface())
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	want := key()
	for _, l := range leaves {
		switch l.v.Kind() {
		case reflect.Bool:
			l.v.SetBool(true)
		case reflect.String:
			l.v.SetString("x")
		default:
			if l.v.CanInt() {
				l.v.SetInt(1)
			} else {
				l.v.SetUint(1)
			}
		}
		if key() == want {
			t.Errorf("%s: setting %s leaves the key unchanged", typ, l.path)
		}
		l.v.SetZero()
	}
	t.Logf("%s: checked %d leaf fields", typ, len(leaves))
}

// leaf is one settable bool, integer or string inside the base value.
type leaf struct {
	v    reflect.Value
	path string
}

// collect grows every slice in v to one element and appends the leaves
// reachable from v.
func collect(t testing.TB, v reflect.Value, path string, leaves *[]leaf) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			sf := v.Type().Field(i)
			if sf.Tag.Get("json") == "-" || !sf.IsExported() && !(sf.Anonymous && sf.Type.Kind() == reflect.Struct) {
				continue
			}
			collect(t, v.Field(i), path+"."+sf.Name, leaves)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		collect(t, v.Index(0), path+"[0]", leaves)
	case reflect.Bool, reflect.String,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if !v.CanSet() {
			t.Fatalf("%s cannot be set through reflection", path)
		}
		*leaves = append(*leaves, leaf{v, path})
	default:
		t.Fatalf("%s: kind %s is not keyable", path, v.Kind())
	}
}
