package jit

// Call-site inlining.
//
// The lowering cannot splice callee code into the caller: every call
// carries mandatory simulated bookkeeping (invocation counting that
// drives the JIT model, per-frame cost selection, the CostInvoke charge,
// deferred-accounting flushes and yield boundaries), so the cheapest
// correct inline is a compile-time execution plan — resolve the callee
// once, compile its body to a private unit, and let the executor run that
// unit directly in the caller's scratch frame area instead of re-entering
// the VM's generic invoke path. attachInlines builds that plan.

// Resolver is the link-time view the VM hands to Promote so call sites
// can be inline-expanded against the resolved-callee cache. ResolveInvoke
// maps a Refs-table index to the resolved callee: its lowered unit plus
// an opaque identity key the executor re-checks at run time (the
// transitive half of relink-epoch invalidation: a site whose resolution
// changed is never taken inline). ok is false when the ref is unresolved,
// names a field, the callee is native or abstract, or its lowering
// failed.
type Resolver interface {
	ResolveInvoke(ref int) (u *Unit, key any, ok bool)
}

// inlineMaxInstrs bounds the callee size inline expansion accepts. The
// generated helper kernels are well under it; anything larger gains
// little from skipping the invoke path.
const inlineMaxInstrs = 64

// Promote builds a compiled unit from a method's lowering: u itself,
// with every EffInvoke effect whose resolved callee lowers to a small
// unit (at most inlineMaxInstrs instructions) annotated as an inline
// site. The callee's own lowering is the site's unit, so inline expansion
// never nests. Nothing else disqualifies a callee — the inline plan runs
// its unit as a real frame (own root-scan record, own deopt path) inside
// the caller's scratch area, so effects, throws, nested out-of-line calls
// and even recursion behave exactly as they would through the generic
// invoke path; the size bound is purely economic.
//
// u is shared and never modified: a block whose chunks gain a site is
// copied along with its chunks, and a unit with no site is returned as
// is. Unresolved callees simply stay out-of-line — inlining is a
// performance event, never a correctness one.
func Promote(u *Unit, res Resolver) *Unit {
	pu := u
	siteOf := map[any]int32{}
	for bi := range u.Blocks {
		var chunks []Chunk // this block's private copy, once a site lands in it
		for ci := range u.Blocks[bi].Chunks {
			eff := &u.Blocks[bi].Chunks[ci].Eff
			if u.Blocks[bi].Chunks[ci].Pure || eff.Kind != EffInvoke {
				continue
			}
			cu, key, ok := res.ResolveInvoke(int(eff.Ref))
			if !ok || cu.NumInstrs > inlineMaxInstrs {
				continue
			}
			si, seen := siteOf[key]
			if pu == u {
				cp := *u
				cp.Blocks = append([]Block(nil), u.Blocks...)
				pu = &cp
			}
			if !seen {
				si = int32(len(pu.Inlines))
				pu.Inlines = append(pu.Inlines, InlineSite{
					Key: key, U: cu, NL: int32(cu.MaxLocals), Slots: int32(cu.NumSlots),
				})
				siteOf[key] = si
				pu.ScratchSlots = max(pu.ScratchSlots, cu.NumSlots)
			}
			if chunks == nil {
				chunks = append([]Chunk(nil), u.Blocks[bi].Chunks...)
				pu.Blocks[bi].Chunks = chunks
			}
			chunks[ci].Eff.Inline = si
		}
	}
	return pu
}
