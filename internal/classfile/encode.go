package classfile

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Binary format constants. The encoding is big-endian throughout, like real
// class files.
const (
	// ClassMagic opens a single encoded class ("GJCF").
	ClassMagic uint32 = 0x474A4346
	// ArchiveMagic opens a class archive ("GJAR"), the stand-in for the
	// jar files (e.g. rt.jar) the paper's instrumenter processes.
	ArchiveMagic uint32 = 0x474A4152
	// FormatVersion is the current encoding version.
	FormatVersion uint16 = 2
)

// Limits guarding the decoder against corrupt or hostile input.
const (
	maxStringLen   = 1 << 16
	maxCodeLen     = 1 << 20
	maxArchiveSize = 1 << 20
)

// ErrBadMagic reports that the input does not start with the expected magic
// number.
var ErrBadMagic = errors.New("classfile: bad magic")

// ErrBadVersion reports an unsupported format version.
var ErrBadVersion = errors.New("classfile: unsupported format version")

// encoder appends the binary encoding to buf. After the first error it
// keeps appending, but its output is discarded.
type encoder struct {
	buf []byte
	err error
}

func (e *encoder) u8(v uint8) { e.buf = append(e.buf, v) }

func (e *encoder) u16(v uint16) { e.buf = binary.BigEndian.AppendUint16(e.buf, v) }

func (e *encoder) u32(v uint32) { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }

func (e *encoder) u64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }

func (e *encoder) str(s string) {
	if len(s) >= maxStringLen {
		if e.err == nil {
			e.err = fmt.Errorf("classfile: string too long (%d bytes)", len(s))
		}
		return
	}
	e.u16(uint16(len(s)))
	e.buf = append(e.buf, s...)
}

type decoder struct {
	r   *bufio.Reader
	err error
}

func (d *decoder) u8() uint8 {
	if d.err != nil {
		return 0
	}
	b, err := d.r.ReadByte()
	if err != nil {
		d.err = err
		return 0
	}
	return b
}

func (d *decoder) u16() uint16 {
	var b [2]byte
	d.fill(b[:])
	return binary.BigEndian.Uint16(b[:])
}

func (d *decoder) u32() uint32 {
	var b [4]byte
	d.fill(b[:])
	return binary.BigEndian.Uint32(b[:])
}

func (d *decoder) u64() uint64 {
	var b [8]byte
	d.fill(b[:])
	return binary.BigEndian.Uint64(b[:])
}

func (d *decoder) fill(p []byte) {
	if d.err != nil {
		for i := range p {
			p[i] = 0
		}
		return
	}
	if _, err := io.ReadFull(d.r, p); err != nil {
		d.err = err
		for i := range p {
			p[i] = 0
		}
	}
}

func (d *decoder) str() string {
	n := int(d.u16())
	if d.err != nil {
		return ""
	}
	buf := make([]byte, n)
	d.fill(buf)
	return string(buf)
}

// WriteClass encodes a single class to w.
func WriteClass(w io.Writer, c *Class) error {
	b, err := AppendClass(nil, c)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// AppendClass appends the encoding WriteClass writes for c to dst and
// returns the extended slice. The encoding is injective: two classes that
// encode without error have equal encodings only when every encoded field
// is equal, so it can key a class by its content.
func AppendClass(dst []byte, c *Class) ([]byte, error) {
	e := &encoder{buf: dst}
	e.u32(ClassMagic)
	e.u16(FormatVersion)
	writeClassBody(e, c)
	if e.err != nil {
		return dst, e.err
	}
	return e.buf, nil
}

func writeClassBody(e *encoder, c *Class) {
	e.str(c.Name)
	e.str(c.Super)
	e.u16(uint16(c.Flags))
	e.str(c.SourceFile)
	if len(c.Fields) > math.MaxUint16 || len(c.Methods) > math.MaxUint16 {
		e.err = fmt.Errorf("classfile: %s: too many members", c.Name)
		return
	}
	e.u16(uint16(len(c.Fields)))
	for _, f := range c.Fields {
		e.str(f.Name)
		e.u16(uint16(f.Flags))
		e.u64(uint64(f.Init))
	}
	e.u16(uint16(len(c.Methods)))
	for _, m := range c.Methods {
		writeMethod(e, m)
	}
}

func writeMethod(e *encoder, m *Method) {
	e.str(m.Name)
	e.str(m.Desc)
	e.u16(uint16(m.Flags))
	if m.MaxStack < 0 || m.MaxStack > math.MaxUint16 ||
		m.MaxLocals < 0 || m.MaxLocals > math.MaxUint16 {
		e.err = fmt.Errorf("classfile: method %s: stack/locals out of range", m.Name)
		return
	}
	e.u16(uint16(m.MaxStack))
	e.u16(uint16(m.MaxLocals))
	if len(m.Code) > maxCodeLen {
		e.err = fmt.Errorf("classfile: method %s: code too long", m.Name)
		return
	}
	e.u32(uint32(len(m.Code)))
	e.buf = append(e.buf, m.Code...)
	if len(m.Refs) > math.MaxUint16 || len(m.Consts) > math.MaxUint16 || len(m.Handlers) > math.MaxUint16 {
		e.err = fmt.Errorf("classfile: method %s: table too large", m.Name)
		return
	}
	e.u16(uint16(len(m.Refs)))
	for _, r := range m.Refs {
		e.u8(uint8(r.Kind))
		e.str(r.Class)
		e.str(r.Name)
		e.str(r.Desc)
	}
	e.u16(uint16(len(m.Consts)))
	for _, k := range m.Consts {
		e.u64(uint64(k))
	}
	e.u16(uint16(len(m.Handlers)))
	for _, h := range m.Handlers {
		e.u16(h.StartPC)
		e.u16(h.EndPC)
		e.u16(h.HandlerPC)
	}
}

// ReadClass decodes a single class from r and validates it.
func ReadClass(r io.Reader) (*Class, error) {
	d := &decoder{r: bufio.NewReader(r)}
	if m := d.u32(); d.err == nil && m != ClassMagic {
		return nil, fmt.Errorf("%w: %#x", ErrBadMagic, m)
	}
	if v := d.u16(); d.err == nil && v != FormatVersion {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	c := readClassBody(d)
	if d.err != nil {
		return nil, fmt.Errorf("classfile: decode: %w", d.err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

func readClassBody(d *decoder) *Class {
	c := &Class{}
	c.Name = d.str()
	c.Super = d.str()
	c.Flags = AccessFlags(d.u16())
	c.SourceFile = d.str()
	nf := int(d.u16())
	for i := 0; i < nf && d.err == nil; i++ {
		f := &Field{}
		f.Name = d.str()
		f.Flags = AccessFlags(d.u16())
		f.Init = int64(d.u64())
		c.Fields = append(c.Fields, f)
	}
	nm := int(d.u16())
	for i := 0; i < nm && d.err == nil; i++ {
		c.Methods = append(c.Methods, readMethod(d))
	}
	return c
}

func readMethod(d *decoder) *Method {
	m := &Method{}
	m.Name = d.str()
	m.Desc = d.str()
	m.Flags = AccessFlags(d.u16())
	m.MaxStack = int(d.u16())
	m.MaxLocals = int(d.u16())
	codeLen := int(d.u32())
	if codeLen > maxCodeLen {
		d.err = fmt.Errorf("code length %d exceeds limit", codeLen)
		return m
	}
	if codeLen > 0 {
		m.Code = make([]byte, codeLen)
		d.fill(m.Code)
	}
	nr := int(d.u16())
	for i := 0; i < nr && d.err == nil; i++ {
		var r Ref
		r.Kind = RefKind(d.u8())
		r.Class = d.str()
		r.Name = d.str()
		r.Desc = d.str()
		m.Refs = append(m.Refs, r)
	}
	nk := int(d.u16())
	for i := 0; i < nk && d.err == nil; i++ {
		m.Consts = append(m.Consts, int64(d.u64()))
	}
	nh := int(d.u16())
	for i := 0; i < nh && d.err == nil; i++ {
		var h ExceptionEntry
		h.StartPC = d.u16()
		h.EndPC = d.u16()
		h.HandlerPC = d.u16()
		m.Handlers = append(m.Handlers, h)
	}
	return m
}

// WriteArchive encodes a set of classes as an archive, the analogue of a
// jar file. Class order is preserved.
func WriteArchive(w io.Writer, classes []*Class) error {
	if len(classes) > maxArchiveSize {
		return fmt.Errorf("classfile: archive too large (%d classes)", len(classes))
	}
	e := &encoder{}
	e.u32(ArchiveMagic)
	e.u16(FormatVersion)
	e.u32(uint32(len(classes)))
	for _, c := range classes {
		writeClassBody(e, c)
	}
	if e.err != nil {
		return e.err
	}
	_, err := w.Write(e.buf)
	return err
}

// ReadArchive decodes an archive written by WriteArchive, validating every
// class.
func ReadArchive(r io.Reader) ([]*Class, error) {
	d := &decoder{r: bufio.NewReader(r)}
	if m := d.u32(); d.err == nil && m != ArchiveMagic {
		return nil, fmt.Errorf("%w: %#x", ErrBadMagic, m)
	}
	if v := d.u16(); d.err == nil && v != FormatVersion {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	n := int(d.u32())
	if d.err == nil && n > maxArchiveSize {
		return nil, fmt.Errorf("classfile: archive declares %d classes, exceeds limit", n)
	}
	var classes []*Class
	for i := 0; i < n && d.err == nil; i++ {
		classes = append(classes, readClassBody(d))
	}
	if d.err != nil {
		return nil, fmt.Errorf("classfile: decode archive: %w", d.err)
	}
	for _, c := range classes {
		if err := c.Validate(); err != nil {
			return nil, err
		}
	}
	return classes, nil
}
