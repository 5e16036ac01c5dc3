// Package instrument implements the bytecode instrumentation tool of
// Section IV: for every native method it generates a Java wrapper method
// (Figure 2) that brackets the call with J2N_Begin/J2N_End transition
// signals, renames the original native method with the announced prefix,
// and relies on the VM's native-method-prefix resolution to keep linking
// against the unchanged native library.
//
// The package supports both deployment modes discussed in the paper:
// ahead-of-time ("static") instrumentation of classes and archives — the
// mode the authors adopt — and load-time ("dynamic") instrumentation via
// the JVMTI ClassFileLoadHook, provided for the ablation experiment.
package instrument

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/bounded"
	"repro/internal/bytecode"
	"repro/internal/classfile"
)

// DefaultPrefix is the native-method prefix used when none is configured.
// Like the paper's prefix, it is chosen not to occur in ordinary method
// names.
const DefaultPrefix = "$$ipa$$_"

// DefaultRuntimeClass is the class declaring the transition-signal methods
// the generated wrappers call. The IPA agent registers its native
// implementations; the class itself is excluded from instrumentation
// (Section IV: "this special class is excluded from instrumentation").
const DefaultRuntimeClass = "repro/ipa/Runtime"

// Transition-signal method names on the runtime class.
const (
	J2NBegin = "J2N_Begin"
	J2NEnd   = "J2N_End"
	N2JBegin = "N2J_Begin"
	N2JEnd   = "N2J_End"
)

// Config parameterizes the instrumenter.
type Config struct {
	// Prefix is prepended to native method names. It must be announced
	// to the VM via SetNativeMethodPrefix before the renamed methods are
	// linked.
	Prefix string
	// RuntimeClass declares static native void J2N_Begin()/J2N_End().
	RuntimeClass string
	// Methods, when non-nil, switches wrappers to the method-identified
	// transition signals J2N_BeginM(J)V / J2N_EndM(J)V, passing the id
	// assigned by this registry. The agent uses the same registry to
	// resolve ids back to names for per-method reports.
	Methods *Registry
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Prefix == "" {
		c.Prefix = DefaultPrefix
	}
	if c.RuntimeClass == "" {
		c.RuntimeClass = DefaultRuntimeClass
	}
	return c
}

// Stats summarizes one instrumentation pass.
type Stats struct {
	// ClassesScanned counts classes examined.
	ClassesScanned int
	// ClassesChanged counts classes that declared native methods and were
	// rewritten.
	ClassesChanged int
	// MethodsWrapped counts generated wrapper methods.
	MethodsWrapped int
	// Skipped counts classes exempted from instrumentation (the runtime
	// class and already-instrumented classes).
	Skipped int
}

// Class instruments a single class, returning a rewritten class (the
// input is never mutated) and the number of wrapped methods. Classes
// without native methods, the runtime class itself, and classes that
// already carry prefixed methods are returned unchanged. A rewrite that
// fails bytecode.VerifyClass is an error.
//
// Without a method registry the rewrite is a pure function of the
// prefix, the runtime class and the class content, so, like the paper's
// rewritten rt.jar, it is made once: the process keeps every verified
// rewrite (see rewrites) and returns the same class for every later call
// on equal input. The result may therefore be shared, and no caller may
// write it. Per-method wrappers embed ids from cfg.Methods, so with a
// registry every call rewrites afresh.
func Class(c *classfile.Class, cfg Config) (*classfile.Class, int, error) {
	cfg = cfg.withDefaults()
	if c.Name == cfg.RuntimeClass || !c.HasNativeMethod() || alreadyInstrumented(c, cfg.Prefix) {
		return c, 0, nil
	}
	if cfg.Methods != nil {
		return rewriteClass(c, cfg)
	}
	buf := bounded.KeyBuf()
	defer bounded.PutKeyBuf(buf)
	key, keyed := rewriteKey(*buf, c, cfg)
	*buf = key
	if keyed {
		if r, ok := rewrites.Get(key); ok {
			return r.class, r.wrapped, nil
		}
	}
	out, wrapped, err := rewriteClass(c, cfg)
	if err == nil && keyed {
		rewrites.Put(key, rewrite{out, wrapped})
	}
	return out, wrapped, err
}

// rewriteMax bounds the rewrite store. The paper grid stores 11
// rewrites and the all-family campaign 15; a rewrite retains about
// 2.2 KB with its key, the input's encoding.
const rewriteMax = 64

// rewrite is a stored static rewrite: a class that passed
// bytecode.VerifyClass, and the number of methods it wraps.
type rewrite struct {
	class   *classfile.Class
	wrapped int
}

// rewrites holds the verified registry-free rewrite of each distinct
// input, keyed by rewriteKey.
var rewrites = bounded.New[rewrite](rewriteMax)

// rewriteKey appends the store key of c's rewrite under cfg to dst: the
// length-prefixed prefix and runtime class, then c's classfile encoding.
// ok is false when c cannot be encoded, and so cannot be stored.
func rewriteKey(dst []byte, c *classfile.Class, cfg Config) (key []byte, ok bool) {
	for _, s := range [...]string{cfg.Prefix, cfg.RuntimeClass} {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	key, err := classfile.AppendClass(dst, c)
	return key, err == nil
}

// rewriteClass wraps every native method of a copy of c and verifies
// the copy.
func rewriteClass(c *classfile.Class, cfg Config) (*classfile.Class, int, error) {
	out := c.Clone()
	var wrapped int
	var newMethods []*classfile.Method
	for _, m := range out.Methods {
		if !m.IsNative() {
			newMethods = append(newMethods, m)
			continue
		}
		origName := m.Name
		// Rename the native method: the VM's prefix-resolution retry
		// re-links it against the unchanged native library symbol.
		m.Name = cfg.Prefix + origName
		wrapper, err := WrapNativeMethod(out.Name, origName, m, cfg)
		if err != nil {
			return nil, 0, fmt.Errorf("instrument: %s.%s: %w", c.Name, origName, err)
		}
		newMethods = append(newMethods, m, wrapper)
		wrapped++
	}
	out.Methods = newMethods
	if err := bytecode.VerifyClass(out); err != nil {
		return nil, 0, fmt.Errorf("instrument: rewritten %s fails verification: %w", c.Name, err)
	}
	return out, wrapped, nil
}

// alreadyInstrumented detects a class that has been through the tool: any
// method carrying the prefix marks it.
func alreadyInstrumented(c *classfile.Class, prefix string) bool {
	for _, m := range c.Methods {
		if len(m.Name) > len(prefix) && m.Name[:len(prefix)] == prefix {
			return true
		}
	}
	return false
}

// WrapNativeMethod generates the Figure 2 wrapper for a native method that
// has already been renamed to cfg.Prefix+origName. The wrapper has the
// original name and descriptor, is not native, and:
//
//	IPA.J2N_Begin();
//	try {
//	    return $$ipa$$_orig(args...);
//	} finally {
//	    IPA.J2N_End();
//	}
//
// The finally clause is realized as a catch-all exception handler that
// signals J2N_End and rethrows, ensuring the transition is recorded even
// on exceptional exit.
func WrapNativeMethod(className, origName string, renamed *classfile.Method, cfg Config) (*classfile.Method, error) {
	cfg = cfg.withDefaults()
	d, err := classfile.ParseDescriptor(renamed.Desc)
	if err != nil {
		return nil, err
	}
	argWords := d.ParamWords
	static := renamed.IsStatic()
	if !static {
		argWords++ // receiver in slot 0
	}

	var methodID int64
	if cfg.Methods != nil {
		methodID = cfg.Methods.IDFor(className + "." + origName + renamed.Desc)
	}
	signal := func(a *bytecode.Assembler, name, nameM string) {
		if cfg.Methods != nil {
			a.Const(methodID)
			a.InvokeStatic(cfg.RuntimeClass, nameM, "(J)V")
		} else {
			a.InvokeStatic(cfg.RuntimeClass, name, "()V")
		}
	}

	a := bytecode.NewAssembler()
	// IPA.J2N_Begin() — outside the protected region, as in Figure 2.
	signal(a, J2NBegin, J2NBeginM)

	tryStart := a.Offset()
	for i := 0; i < argWords; i++ {
		a.Load(i)
	}
	if static {
		a.InvokeStatic(className, renamed.Name, renamed.Desc)
	} else {
		a.InvokeVirtual(className, renamed.Name, renamed.Desc)
	}
	tryEnd := a.Offset()

	// Normal completion: signal the end transition, then return.
	signal(a, J2NEnd, J2NEndM)
	if d.ReturnsValue {
		a.IReturn()
	} else {
		a.Return()
	}

	// finally on exceptional exit: stack holds the thrown value.
	handlerPC := a.Offset()
	a.EnterHandler()
	signal(a, J2NEnd, J2NEndM)
	a.Throw()

	flags := (renamed.Flags &^ classfile.AccNative) | classfile.AccSynthetic
	wrapper, err := a.FinishMethod(origName, renamed.Desc, flags, argWords,
		[]classfile.ExceptionEntry{{StartPC: tryStart, EndPC: tryEnd, HandlerPC: handlerPC}})
	if err != nil {
		return nil, err
	}
	return wrapper, nil
}

// Classes instruments a set of classes in place of a class path, returning
// each class's result from Class and aggregate statistics.
func Classes(classes []*classfile.Class, cfg Config) ([]*classfile.Class, Stats, error) {
	cfg = cfg.withDefaults()
	var out []*classfile.Class
	var st Stats
	for _, c := range classes {
		st.ClassesScanned++
		rewritten, wrapped, err := Class(c, cfg)
		if err != nil {
			return nil, st, err
		}
		if wrapped > 0 {
			st.ClassesChanged++
			st.MethodsWrapped += wrapped
		} else if rewritten == c && (c.Name == cfg.RuntimeClass || alreadyInstrumented(c, cfg.Prefix)) {
			st.Skipped++
		}
		out = append(out, rewritten)
	}
	return out, st, nil
}

// Archive reads a class archive from r, instruments it, and writes the
// rewritten archive to w — the workflow the paper applies to rt.jar before
// loading it via -Xbootclasspath/p:.
func Archive(r io.Reader, w io.Writer, cfg Config) (Stats, error) {
	classes, err := classfile.ReadArchive(r)
	if err != nil {
		return Stats{}, err
	}
	rewritten, st, err := Classes(classes, cfg)
	if err != nil {
		return st, err
	}
	if err := classfile.WriteArchive(w, rewritten); err != nil {
		return st, err
	}
	return st, nil
}

// RuntimeClassDef returns the definition of the IPA runtime support class:
// a class declaring the four transition-signal methods as static native
// methods (Section IV: "we created a Java class corresponding to IPA which
// declares the four corresponding static methods as native"). N2J signals
// are invoked from the C-side JNI wrappers in the real system; they are
// declared here for completeness and for the mixed-call-chain extension.
// Under the default runtime class name every call returns the same
// class, built once, so no caller may write it.
func RuntimeClassDef(cfg Config) *classfile.Class {
	cfg = cfg.withDefaults()
	if cfg.RuntimeClass == DefaultRuntimeClass {
		return defaultRuntimeClass
	}
	return runtimeClassDef(cfg.RuntimeClass)
}

// defaultRuntimeClass is the runtime class every IPA agent with the
// default configuration loads.
var defaultRuntimeClass = runtimeClassDef(DefaultRuntimeClass)

// runtimeClassDef builds the runtime support class under name.
func runtimeClassDef(name string) *classfile.Class {
	natFlags := classfile.AccPublic | classfile.AccStatic | classfile.AccNative
	return &classfile.Class{
		Name:       name,
		SourceFile: "Runtime.java",
		Methods: []*classfile.Method{
			{Name: J2NBegin, Desc: "()V", Flags: natFlags},
			{Name: J2NEnd, Desc: "()V", Flags: natFlags},
			{Name: J2NBeginM, Desc: "(J)V", Flags: natFlags},
			{Name: J2NEndM, Desc: "(J)V", Flags: natFlags},
			{Name: N2JBegin, Desc: "()V", Flags: natFlags},
			{Name: N2JEnd, Desc: "()V", Flags: natFlags},
		},
	}
}

// LoadHook returns a JVMTI ClassFileLoadHook implementing dynamic (load-
// time) instrumentation, the alternative deployment mode of Section IV.
// The returned function signature matches jvmti.Callbacks.ClassFileLoadHook
// modulo the env parameter, which the caller binds.
func LoadHook(cfg Config) func(c *classfile.Class) *classfile.Class {
	cfg = cfg.withDefaults()
	return func(c *classfile.Class) *classfile.Class {
		rewritten, wrapped, err := Class(c, cfg)
		if err != nil || wrapped == 0 {
			return nil
		}
		return rewritten
	}
}
