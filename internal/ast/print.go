package ast

import (
	"fmt"
	"strings"
)

// Print renders the file back to C source. The output parses back to an
// equivalent tree (print/parse round trip is property-tested), which is
// what lets the pipeline of Fig. 1 hand text between stages.
func Print(f *File) string {
	var p printer
	for i, d := range f.Decls {
		if i > 0 {
			p.nl()
		}
		p.decl(d)
	}
	return p.b.String()
}

// PrintPlainC renders the file like Print, but with the pure extension
// lowered to plain C the way the paper's PC-PosPro step does it: pure
// pointer qualifiers print as const and the pure function modifier is
// dropped. The output equals Print after core.StripPure, without
// modifying the tree.
func PrintPlainC(f *File) string {
	p := printer{plainC: true}
	for i, d := range f.Decls {
		if i > 0 {
			p.nl()
		}
		p.decl(d)
	}
	return p.b.String()
}

// PrintStmt renders a single statement (used in diagnostics and tests).
func PrintStmt(s Stmt) string {
	var p printer
	p.stmt(s)
	return p.b.String()
}

// PrintExpr renders a single expression.
func PrintExpr(e Expr) string {
	var p printer
	p.expr(e)
	return p.b.String()
}

// PrintType renders a type expression (without a declarator name).
func PrintType(t *TypeExpr) string {
	var p printer
	p.typeAndName(t, "")
	return strings.TrimRight(p.b.String(), " ")
}

type printer struct {
	b      strings.Builder
	indent int
	plainC bool // lower pure to const (PrintPlainC)
}

func (p *printer) w(s string)                { p.b.WriteString(s) }
func (p *printer) f(format string, a ...any) { fmt.Fprintf(&p.b, format, a...) }
func (p *printer) nl()                       { p.b.WriteByte('\n') }
func (p *printer) tab()                      { p.w(strings.Repeat("    ", p.indent)) }

func (p *printer) decl(d Decl) {
	switch x := d.(type) {
	case *FuncDecl:
		p.funcDecl(x)
	case *VarDeclGroup:
		p.tab()
		p.varDecls(x.Decls)
		p.w(";\n")
	case *StructDecl:
		p.f("struct %s {\n", x.Name)
		p.indent++
		for _, fld := range x.Fields {
			p.tab()
			p.typeAndName(fld.Type, fld.Name)
			for _, l := range fld.ArrayLens {
				p.w("[")
				p.expr(l)
				p.w("]")
			}
			p.w(";\n")
		}
		p.indent--
		p.w("};\n")
	case *PragmaDecl:
		p.w(x.Text)
		p.nl()
	}
}

func (p *printer) funcDecl(d *FuncDecl) {
	if d.Pure && !p.plainC {
		p.w("pure ")
	}
	if d.Static {
		p.w("static ")
	}
	if d.Inline {
		p.w("inline ")
	}
	p.typeAndName(d.Ret, d.Name)
	p.w("(")
	if len(d.Params) == 0 {
		p.w("void")
	}
	for i, prm := range d.Params {
		if i > 0 {
			p.w(", ")
		}
		p.typeAndName(prm.Type, prm.Name)
	}
	p.w(")")
	if d.Body == nil {
		p.w(";\n")
		return
	}
	p.w(" ")
	p.block(d.Body)
	p.nl()
}

// typeAndName prints a type followed by an optional declarator name,
// e.g. "pure int* p" or "float** A".
func (p *printer) typeAndName(t *TypeExpr, name string) {
	switch {
	case t.Pure && !p.plainC:
		p.w("pure ")
		if t.Const {
			p.w("const ")
		}
	case t.Pure || t.Const:
		p.w("const ")
	}
	if t.Base == Struct {
		p.f("struct %s", t.StructName)
	} else {
		p.w(t.Base.String())
	}
	p.ptrQuals(t)
	if name != "" {
		p.w(" ")
		p.w(name)
	}
}

// ptrQuals prints the pointer levels of t. A pure qualifier on the
// outermost level is implied by a leading "pure " (t.Pure) and is not
// repeated, reproducing the paper's "pure int*" spelling; lowered to
// plain C, that level's qualifier is the leading const and every other
// pure level prints as const.
func (p *printer) ptrQuals(t *TypeExpr) {
	for i, q := range t.Ptrs {
		pure := q.Pure && !(t.Pure && i == len(t.Ptrs)-1)
		if pure && !p.plainC {
			p.w(" pure")
		}
		if q.Const || (pure && p.plainC) {
			p.w(" const")
		}
		p.w("*")
	}
}

func (p *printer) varDecls(ds []*VarDecl) {
	for i, d := range ds {
		if i == 0 {
			p.typeAndName(d.Type, d.Name)
		} else {
			// Subsequent declarators share the base type but carry their
			// own pointer levels: "float **A, **Bt, **C;".
			p.w(", ")
			p.ptrQuals(d.Type)
			if len(d.Type.Ptrs) > 0 {
				p.w(" ")
			}
			p.w(d.Name)
		}
		for _, l := range d.ArrayLens {
			p.w("[")
			p.expr(l)
			p.w("]")
		}
		if d.Init != nil {
			p.w(" = ")
			p.expr(d.Init)
		}
	}
}

func (p *printer) block(b *BlockStmt) {
	p.w("{\n")
	p.indent++
	for _, s := range b.List {
		p.stmt(s)
	}
	p.indent--
	p.tab()
	p.w("}")
}

func (p *printer) stmt(s Stmt) {
	switch x := s.(type) {
	case *DeclStmt:
		p.tab()
		p.varDecls(x.Decls)
		p.w(";\n")
	case *ExprStmt:
		p.tab()
		p.expr(x.X)
		p.w(";\n")
	case *EmptyStmt:
		p.tab()
		p.w(";\n")
	case *BlockStmt:
		p.tab()
		p.block(x)
		p.nl()
	case *IfStmt:
		p.tab()
		p.ifTail(x)
	case *ForStmt:
		p.tab()
		p.w("for (")
		switch init := x.Init.(type) {
		case nil:
			p.w(";")
		case *DeclStmt:
			p.varDecls(init.Decls)
			p.w(";")
		case *ExprStmt:
			p.expr(init.X)
			p.w(";")
		case *EmptyStmt:
			p.w(";")
		}
		if x.Cond != nil {
			p.w(" ")
			p.expr(x.Cond)
		}
		p.w(";")
		if x.Post != nil {
			p.w(" ")
			p.expr(x.Post)
		}
		p.w(") ")
		p.stmtAsBody(x.Body)
	case *WhileStmt:
		p.tab()
		p.w("while (")
		p.expr(x.Cond)
		p.w(") ")
		p.stmtAsBody(x.Body)
	case *DoStmt:
		p.tab()
		p.w("do ")
		p.stmtAsBody(x.Body)
		// stmtAsBody ends with newline; back up by printing while on a
		// fresh indented line, which re-parses identically.
		p.tab()
		p.w("while (")
		p.expr(x.Cond)
		p.w(");\n")
	case *ReturnStmt:
		p.tab()
		if x.X == nil {
			p.w("return;\n")
		} else {
			p.w("return ")
			p.expr(x.X)
			p.w(";\n")
		}
	case *BreakStmt:
		p.tab()
		p.w("break;\n")
	case *ContinueStmt:
		p.tab()
		p.w("continue;\n")
	case *SwitchStmt:
		p.tab()
		p.w("switch (")
		p.expr(x.Tag)
		p.w(") {\n")
		for _, c := range x.Cases {
			p.tab()
			if c.Value == nil {
				p.w("default:\n")
			} else {
				p.w("case ")
				p.expr(c.Value)
				p.w(":\n")
			}
			p.indent++
			for _, s2 := range c.Body {
				p.stmt(s2)
			}
			p.indent--
		}
		p.tab()
		p.w("}\n")
	case *PragmaStmt:
		p.w(x.Text)
		p.nl()
	}
}

// ifTail prints an if statement without leading indentation (the caller
// has already indented), so that else-if chains stay on one line.
func (p *printer) ifTail(x *IfStmt) {
	p.w("if (")
	p.expr(x.Cond)
	p.w(") ")
	p.stmtAsBody(x.Then)
	if x.Else == nil {
		return
	}
	p.tab()
	p.w("else ")
	if ei, ok := x.Else.(*IfStmt); ok {
		p.ifTail(ei)
		return
	}
	p.stmtAsBody(x.Else)
}

// stmtAsBody prints a statement used as a control-flow body: blocks print
// inline, other statements print on their own line with extra indentation.
func (p *printer) stmtAsBody(s Stmt) {
	if b, ok := s.(*BlockStmt); ok {
		p.block(b)
		p.nl()
		return
	}
	p.nl()
	p.indent++
	p.stmt(s)
	p.indent--
}

func (p *printer) expr(e Expr) {
	switch x := e.(type) {
	case *Ident:
		p.w(x.Name)
	case *IntLit:
		if x.Text != "" {
			p.w(x.Text)
		} else {
			p.f("%d", x.Value)
		}
	case *FloatLit:
		if x.Text != "" {
			p.w(x.Text)
		} else {
			p.f("%g", x.Value)
		}
	case *CharLit:
		if x.Text != "" {
			p.w(x.Text)
		} else {
			p.f("'%c'", rune(x.Value))
		}
	case *StringLit:
		if x.Text != "" {
			p.w(x.Text)
		} else {
			p.f("%q", x.Value)
		}
	case *BinaryExpr:
		p.exprPrec(x.X, x.Op.Precedence())
		p.f(" %s ", x.Op)
		p.exprPrec(x.Y, x.Op.Precedence()+1)
	case *UnaryExpr:
		p.w(x.Op.String())
		p.exprPrec(x.X, 11)
	case *PostfixExpr:
		p.exprPrec(x.X, 11)
		p.w(x.Op.String())
	case *AssignExpr:
		p.expr(x.LHS)
		p.f(" %s ", x.Op)
		p.expr(x.RHS)
	case *CondExpr:
		p.exprPrec(x.Cond, 1)
		p.w(" ? ")
		p.expr(x.Then)
		p.w(" : ")
		p.expr(x.Else)
	case *CallExpr:
		p.w(x.Fun.Name)
		p.w("(")
		for i, a := range x.Args {
			if i > 0 {
				p.w(", ")
			}
			p.expr(a)
		}
		p.w(")")
	case *IndexExpr:
		p.exprPrec(x.X, 11)
		p.w("[")
		p.expr(x.Index)
		p.w("]")
	case *MemberExpr:
		p.exprPrec(x.X, 11)
		if x.Arrow {
			p.w("->")
		} else {
			p.w(".")
		}
		p.w(x.Name)
	case *CastExpr:
		p.w("(")
		p.typeAndName(x.Type, "")
		p.w(")")
		p.exprPrec(x.X, 11)
	case *SizeofExpr:
		if x.Type != nil {
			p.w("sizeof(")
			p.typeAndName(x.Type, "")
			p.w(")")
		} else {
			p.w("sizeof ")
			p.exprPrec(x.X, 11)
		}
	case *ParenExpr:
		p.w("(")
		p.expr(x.X)
		p.w(")")
	}
}

// exprPrec prints e, parenthesizing it when its natural precedence is
// lower than min (so the printed text re-parses with the same shape).
func (p *printer) exprPrec(e Expr, min int) {
	prec := 12
	switch x := e.(type) {
	case *BinaryExpr:
		prec = x.Op.Precedence()
	case *AssignExpr, *CondExpr:
		prec = 0
	case *UnaryExpr, *CastExpr:
		prec = 11
	case *ParenExpr:
		p.expr(x)
		return
	}
	if prec < min {
		p.w("(")
		p.expr(e)
		p.w(")")
		return
	}
	p.expr(e)
}
