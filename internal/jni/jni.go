// Package jni reproduces the Java Native Interface layer of the paper's
// substrate: the per-thread JNIEnv through which native code calls back
// into Java, and — crucially for the Improved Profiling Agent — the JNI
// function table whose method-invocation entries can be intercepted.
//
// Section IV of the paper: "IPA registers wrappers for all JNI functions
// that are used to invoke methods: Call<Type>Method(), CallStatic<Type>
// Method(), as well as CallNonvirtual<Type>Method() ... in total 90
// wrappers have to be registered." This package enumerates exactly those 90
// functions (3 families x 10 return types x 3 parameter-passing styles) and
// routes every native-to-Java invocation through the current table, so an
// installed wrapper observes every N2J transition.
package jni

import (
	"fmt"
	"sync/atomic"

	"repro/internal/vm"
)

// Families of method-invocation functions.
var families = [...]string{"", "Static", "Nonvirtual"}

// Return-type components of the function names.
var types = [...]string{
	"Object", "Boolean", "Byte", "Char", "Short",
	"Int", "Long", "Float", "Double", "Void",
}

// Parameter-passing style suffixes: varargs, va_list, jvalue array.
var styles = [...]string{"", "V", "A"}

// typeToDesc maps a function-name type component to the descriptor return
// characters it accepts.
var typeToDesc = map[string]string{
	"Object":  "L[", // any reference return
	"Boolean": "Z",
	"Byte":    "B",
	"Char":    "C",
	"Short":   "S",
	"Int":     "I",
	"Long":    "J",
	"Float":   "F",
	"Double":  "D",
	"Void":    "V",
}

// numFunctions is the number of JNI method-invocation functions.
const numFunctions = len(families) * len(types) * len(styles)

// names holds every "Call<family><type>Method<style>" string in the order
// of the families/types/styles tables, family outermost: a function's
// index into it is its slot in the function table, so the upcall path
// neither builds a name nor hashes one.
var names = func() (out [numFunctions]string) {
	i := 0
	for _, f := range families {
		for _, ty := range types {
			for _, s := range styles {
				out[i] = "Call" + f + ty + "Method" + s
				i++
			}
		}
	}
	return out
}()

// funcIndex maps a function name to its index in names.
var funcIndex = func() map[string]int {
	m := make(map[string]int, numFunctions)
	for i, name := range names {
		m[name] = i
	}
	return m
}()

// FunctionNames returns the names of all 90 JNI method-invocation
// functions, in deterministic order: the order of a Functions table.
func FunctionNames() []string {
	return append([]string(nil), names[:]...)
}

// FunctionIndex returns the index of the named function in
// FunctionNames and in a Functions table.
func FunctionIndex(name string) (int, bool) {
	i, ok := funcIndex[name]
	return i, ok
}

// Call carries the arguments of one JNI method-invocation function call.
type Call struct {
	// Function is the JNI function name used, e.g. "CallStaticIntMethodA".
	Function string
	// Class, Method, Desc identify the Java method being invoked.
	Class, Method, Desc string
	// Recv is the receiver handle for instance invocations (ignored for
	// the Static family).
	Recv int64
	// Args are the argument words (without the receiver).
	Args []int64

	// buf is the argument storage a recycled record keeps between upcalls.
	buf []int64
	// typed marks a record whose function upcall chose from Desc, so
	// the default implementation need not check Desc's return type
	// against the function again.
	typed bool
}

// Func is one entry of the JNI function table. The *Call is valid only
// until the function returns: Env recycles the record for its next
// upcall, so a Func must copy whatever it wants to keep.
type Func func(env *Env, call *Call) (int64, error)

// Functions is the content of a JNI function table, indexed like
// FunctionNames: the analogue of the JNINativeInterface structure that
// JVMTI's GetJNIFunctionTable and SetJNIFunctionTable exchange.
type Functions [numFunctions]Func

// Table is the JNI function table. JVMTI's JNI-function-interception
// feature swaps its content. The table is copy-on-write: dispatch is a
// single atomic pointer load plus an index into an immutable array — no
// lock on the N2J hot path — while Replace publishes a fresh array
// atomically.
type Table struct {
	funcs atomic.Pointer[Functions]
}

// Get returns the current entry for name.
func (t *Table) Get(name string) (Func, bool) {
	i, ok := funcIndex[name]
	if !ok {
		return nil, false
	}
	return t.funcs.Load()[i], true
}

// Snapshot returns a copy of the table contents, the analogue of JVMTI's
// GetJNIFunctionTable.
func (t *Table) Snapshot() Functions { return *t.funcs.Load() }

// Replace installs funcs as the table's content, the analogue of
// SetJNIFunctionTable. Every entry must be set.
func (t *Table) Replace(funcs Functions) error {
	for i, f := range funcs {
		if f == nil {
			return fmt.Errorf("jni: nil entry for %q", names[i])
		}
	}
	t.funcs.Store(&funcs)
	return nil
}

// JNI binds a function table to a VM and manufactures Env values for its
// threads.
type JNI struct {
	vm    *vm.VM
	table *Table
	// calls is the ground-truth count of dispatched JNI method
	// invocations (N2J transitions), kept independently of any agent.
	calls atomic.Uint64
}

// defaultFuncs is the default function table every VM starts from. It
// is built once per process and shared: the table is copy-on-write, so
// Replace installs a copy and never writes the shared array.
var defaultFuncs = func() *Functions {
	funcs := new(Functions)
	for i, name := range names {
		funcs[i] = defaultImpl(name)
	}
	return funcs
}()

// Attach installs the default function table for v and this JNI layer
// as the VM's Env factory. It returns the JNI instance for use by the
// JVMTI layer.
func Attach(v *vm.VM) *JNI {
	j := &JNI{vm: v, table: &Table{}}
	j.table.funcs.Store(defaultFuncs)
	v.EnvFactory = func(t *vm.Thread) vm.Env { return &Env{jni: j, thread: t} }
	return j
}

// Table returns the JNI function table.
func (j *JNI) Table() *Table { return j.table }

// VM returns the attached VM.
func (j *JNI) VM() *vm.VM { return j.vm }

// CallCount returns the ground-truth number of JNI method invocations
// dispatched through the table.
func (j *JNI) CallCount() uint64 { return j.calls.Load() }

// defaultImpl builds the standard implementation of one JNI invocation
// function: validate the descriptor's return type against the function
// name (unless upcall chose the function from that descriptor), then
// enter the interpreter.
func defaultImpl(name string) Func {
	family, retChars := parseFunctionName(name)
	return func(env *Env, call *Call) (int64, error) {
		if !call.typed {
			if err := checkReturn(call.Desc, retChars); err != nil {
				return 0, fmt.Errorf("jni: %s: %w", name, err)
			}
		}
		t := env.thread
		if family == "Static" {
			return t.InvokeStatic(call.Class, call.Method, call.Desc, call.Args...)
		}
		// Virtual and Nonvirtual both resolve through the declared class
		// in the simulator (no subclassing), but remain distinct table
		// entries exactly as in JNI.
		return t.InvokeVirtual(call.Class, call.Method, call.Desc, call.Recv, call.Args...)
	}
}

// parseFunctionName splits "Call<family><type>Method<style>".
func parseFunctionName(name string) (family, retChars string) {
	rest := name[len("Call"):]
	for _, f := range []string{"Static", "Nonvirtual"} {
		if len(rest) > len(f) && rest[:len(f)] == f {
			family = f
			rest = rest[len(f):]
			break
		}
	}
	for _, ty := range types {
		if len(rest) >= len(ty) && rest[:len(ty)] == ty {
			return family, typeToDesc[ty]
		}
	}
	return family, ""
}

// checkReturn validates that the descriptor's return type is invocable via
// a function accepting retChars.
func checkReturn(desc, retChars string) error {
	if desc == "" {
		return fmt.Errorf("empty descriptor")
	}
	ret := desc[len(desc)-1]
	// Reference returns end in ';' (class) or are arrays; map both to the
	// Object function characters.
	if ret == ';' {
		ret = 'L'
	}
	for i := 0; i < len(retChars); i++ {
		if retChars[i] == ret {
			return nil
		}
		if retChars[i] == '[' && containsArrayReturn(desc) {
			return nil
		}
	}
	return fmt.Errorf("descriptor %q not invocable via return type %q", desc, retChars)
}

func containsArrayReturn(desc string) bool {
	for i := len(desc) - 1; i >= 0; i-- {
		if desc[i] == ')' {
			return i+1 < len(desc) && desc[i+1] == '['
		}
	}
	return false
}

// Env is the JNIEnv of one thread. It satisfies vm.Env, so native code
// receives it transparently; its Call* methods route through the function
// table, making every N2J transition observable to interception wrappers.
type Env struct {
	jni    *JNI
	thread *vm.Thread
	// free holds the Call records of finished upcalls for reuse. A nested
	// upcall (Java called from native code calling native code that calls
	// Java again) takes a fresh record while the outer one is live.
	free []*Call
}

var _ vm.Env = (*Env)(nil)

// Thread returns the owning thread.
func (e *Env) Thread() *vm.Thread { return e.thread }

// VM returns the attached VM.
func (e *Env) VM() *vm.VM { return e.jni.vm }

// JNI returns the JNI layer, giving native code access to explicit
// function-variant dispatch.
func (e *Env) JNI() *JNI { return e.jni }

// Work models native computation of n cycles.
func (e *Env) Work(n uint64) { e.thread.NativeWork(n) }

// CallStatic invokes a static Java method using the array-style function
// of the appropriate return type (e.g. CallStaticIntMethodA for "...)I").
func (e *Env) CallStatic(class, method, desc string, args ...int64) (int64, error) {
	return e.upcall("Static", class, method, desc, 0, args)
}

// CallStatic1 is CallStatic with one argument word. upcall copies the
// argument out of the array, so the array stays on the stack.
func (e *Env) CallStatic1(class, method, desc string, arg int64) (int64, error) {
	args := [1]int64{arg}
	return e.upcall("Static", class, method, desc, 0, args[:])
}

// CallVirtual invokes an instance Java method via the array-style function.
func (e *Env) CallVirtual(class, method, desc string, recv int64, args ...int64) (int64, error) {
	return e.upcall("", class, method, desc, recv, args)
}

// upcall dispatches one array-style invocation of the given family
// through a recycled Call record. The record carries a copy of args, so
// the caller's argument slice never escapes.
func (e *Env) upcall(family, class, method, desc string, recv int64, args []int64) (int64, error) {
	i, err := functionFor(family, desc, "A")
	if err != nil {
		return 0, err
	}
	var c *Call
	if n := len(e.free); n > 0 {
		c = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		c = new(Call)
	}
	c.buf = append(c.buf[:0], args...)
	c.Class, c.Method, c.Desc, c.Recv, c.Args, c.typed = class, method, desc, recv, c.buf, true
	r, err := e.dispatch(i, c)
	// Drop the string references while the record idles.
	c.Function, c.Class, c.Method, c.Desc, c.Args = "", "", "", "", nil
	e.free = append(e.free, c)
	return r, err
}

// CallByName dispatches an invocation through the named function-table
// entry, exercising any installed interception wrapper. The caller chose
// the function, so the default implementation checks the descriptor's
// return type against it.
func (e *Env) CallByName(name string, call *Call) (int64, error) {
	i, ok := funcIndex[name]
	if !ok {
		return 0, fmt.Errorf("jni: no such function %q", name)
	}
	call.typed = false
	return e.dispatch(i, call)
}

// dispatch runs call through function-table entry i.
func (e *Env) dispatch(i int, call *Call) (int64, error) {
	e.jni.calls.Add(1)
	call.Function = names[i]
	return e.jni.table.funcs.Load()[i](e, call)
}

// NewArray allocates an array on the simulated heap. The allocation is
// attributed to native code (the thread is inside a native frame), so it
// feeds the heap ledgers and allocation events but never triggers a
// collection directly.
func (e *Env) NewArray(length int64) (int64, error) {
	return e.thread.NativeNewArray(length)
}

// ArrayLoad reads an element of a heap array.
func (e *Env) ArrayLoad(handle, index int64) (int64, error) {
	return e.jni.vm.Heap.Load(handle, index)
}

// ArrayStore writes an element of a heap array.
func (e *Env) ArrayStore(handle, index, value int64) error {
	return e.jni.vm.Heap.Store(handle, index, value)
}

// functionFor picks the index in names of the JNI function for a family,
// descriptor return type and style, by switch.
func functionFor(family, desc, style string) (int, error) {
	if desc == "" {
		return 0, fmt.Errorf("jni: empty descriptor")
	}
	var ti int // index into types
	switch ret := desc[len(desc)-1]; {
	case ret == ';' || containsArrayReturn(desc):
		ti = 0 // Object
	case ret == 'Z':
		ti = 1
	case ret == 'B':
		ti = 2
	case ret == 'C':
		ti = 3
	case ret == 'S':
		ti = 4
	case ret == 'I':
		ti = 5
	case ret == 'J':
		ti = 6
	case ret == 'F':
		ti = 7
	case ret == 'D':
		ti = 8
	case ret == 'V':
		ti = 9
	default:
		return 0, fmt.Errorf("jni: cannot infer function for descriptor %q", desc)
	}
	fi, si := 0, 0 // indexes into families and styles
	switch family {
	case "Static":
		fi = 1
	case "Nonvirtual":
		fi = 2
	}
	switch style {
	case "V":
		si = 1
	case "A":
		si = 2
	}
	return (fi*len(types)+ti)*len(styles) + si, nil
}
