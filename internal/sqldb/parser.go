package sqldb

import (
	"fmt"
	"strconv"
	"strings"

	"kwagg/internal/relation"
	"kwagg/internal/sqlast"
)

// Parse parses a SQL statement of the supported subset into the shared AST.
// Rendering the returned query with its String method produces text that
// parses back to an equal tree.
func Parse(src string) (*sqlast.Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if !p.at(tokEOF, "") {
		return nil, p.errorf("trailing input %q", p.cur().text)
	}
	return q, nil
}

type parser struct {
	toks []token
	i    int
	src  string
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) at(kind tokenKind, text string) bool {
	t := p.cur()
	if t.kind != kind {
		return false
	}
	return text == "" || strings.EqualFold(t.text, text)
}

func (p *parser) atKeyword(words ...string) bool {
	for _, w := range words {
		if p.at(tokIdent, w) {
			return true
		}
	}
	return false
}

func (p *parser) expect(kind tokenKind, text string) (token, error) {
	if !p.at(kind, text) {
		return token{}, p.errorf("expected %q, found %q", text, p.cur().text)
	}
	return p.next(), nil
}

func (p *parser) errorf(format string, args ...interface{}) error {
	return fmt.Errorf("sqldb: parse error at offset %d: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

var reservedAfterRef = map[string]bool{
	"where": true, "group": true, "groupby": true, "order": true, "from": true,
	"and": true, "as": true, "on": true, "select": true, "distinct": true,
	"contains": true, "like": true, "by": true, "limit": true,
}

func (p *parser) parseQuery() (*sqlast.Query, error) {
	if _, err := p.expect(tokIdent, "SELECT"); err != nil {
		return nil, err
	}
	q := &sqlast.Query{}
	if p.atKeyword("DISTINCT") {
		p.next()
		q.Distinct = true
	}
	for {
		it, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		q.Select = append(q.Select, it)
		if p.at(tokPunct, ",") {
			p.next()
			continue
		}
		break
	}
	if _, err := p.expect(tokIdent, "FROM"); err != nil {
		return nil, err
	}
	for {
		tr, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		q.From = append(q.From, tr)
		if p.at(tokPunct, ",") {
			p.next()
			continue
		}
		break
	}
	if p.atKeyword("WHERE") {
		p.next()
		for {
			pred, err := p.parsePred()
			if err != nil {
				return nil, err
			}
			q.Where = append(q.Where, pred)
			if p.atKeyword("AND") {
				p.next()
				continue
			}
			break
		}
	}
	if p.atKeyword("GROUP") || p.atKeyword("GROUPBY") {
		joined := p.atKeyword("GROUPBY")
		p.next()
		if !joined {
			if _, err := p.expect(tokIdent, "BY"); err != nil {
				return nil, err
			}
		}
		for {
			c, err := p.parseCol()
			if err != nil {
				return nil, err
			}
			q.GroupBy = append(q.GroupBy, c)
			if p.at(tokPunct, ",") {
				p.next()
				continue
			}
			break
		}
	}
	if p.atKeyword("ORDER") {
		p.next()
		if _, err := p.expect(tokIdent, "BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.parseCol()
			if err != nil {
				return nil, err
			}
			item := sqlast.OrderItem{Col: c}
			if p.atKeyword("DESC") {
				p.next()
				item.Desc = true
			} else if p.atKeyword("ASC") {
				p.next()
			}
			q.OrderBy = append(q.OrderBy, item)
			if p.at(tokPunct, ",") {
				p.next()
				continue
			}
			break
		}
	}
	if p.atKeyword("LIMIT") {
		p.next()
		t, err := p.expect(tokNumber, "")
		if err != nil {
			return nil, err
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, p.errorf("bad LIMIT %q", t.text)
		}
		q.Limit = &n
	}
	return q, nil
}

func (p *parser) parseSelectItem() (sqlast.SelectItem, error) {
	var it sqlast.SelectItem
	if fn, ok := sqlast.IsAggFunc(p.cur().text); ok && p.cur().kind == tokIdent &&
		p.i+1 < len(p.toks) && p.toks[p.i+1].kind == tokPunct && p.toks[p.i+1].text == "(" {
		p.next() // func name
		p.next() // (
		agg := sqlast.AggExpr{Func: fn}
		if p.atKeyword("DISTINCT") {
			p.next()
			agg.Distinct = true
		}
		c, err := p.parseCol()
		if err != nil {
			return it, err
		}
		agg.Arg = c
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return it, err
		}
		it.Expr = agg
	} else {
		c, err := p.parseCol()
		if err != nil {
			return it, err
		}
		it.Expr = sqlast.ColExpr{Col: c}
	}
	if p.atKeyword("AS") {
		p.next()
		t, err := p.expect(tokIdent, "")
		if err != nil {
			return it, err
		}
		it.Alias = t.text
	}
	return it, nil
}

func (p *parser) parseCol() (sqlast.Col, error) {
	t, err := p.expect(tokIdent, "")
	if err != nil {
		return sqlast.Col{}, err
	}
	c := sqlast.Col{Column: t.text}
	if p.at(tokPunct, ".") {
		p.next()
		t2, err := p.expect(tokIdent, "")
		if err != nil {
			return sqlast.Col{}, err
		}
		c.Table, c.Column = t.text, t2.text
	}
	return c, nil
}

func (p *parser) parseTableRef() (sqlast.TableRef, error) {
	var tr sqlast.TableRef
	if p.at(tokPunct, "(") {
		p.next()
		sub, err := p.parseQuery()
		if err != nil {
			return tr, err
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return tr, err
		}
		tr.Subquery = sub
	} else {
		t, err := p.expect(tokIdent, "")
		if err != nil {
			return tr, err
		}
		tr.Name = t.text
	}
	if p.atKeyword("AS") {
		p.next()
	}
	if p.cur().kind == tokIdent && !reservedAfterRef[strings.ToLower(p.cur().text)] {
		tr.Alias = p.next().text
	}
	if tr.Alias == "" {
		tr.Alias = tr.Name
	}
	return tr, nil
}

func (p *parser) parsePred() (sqlast.Pred, error) {
	left, err := p.parseCol()
	if err != nil {
		return nil, err
	}
	if p.atKeyword("CONTAINS") {
		p.next()
		t, err := p.expect(tokString, "")
		if err != nil {
			return nil, err
		}
		return sqlast.ContainsPred{Col: left, Needle: t.text}, nil
	}
	if p.atKeyword("LIKE") {
		// LIKE '%t%' is accepted as a synonym for CONTAINS 't'.
		p.next()
		t, err := p.expect(tokString, "")
		if err != nil {
			return nil, err
		}
		return sqlast.ContainsPred{Col: left, Needle: strings.Trim(t.text, "%")}, nil
	}
	op := p.cur()
	if op.kind != tokPunct {
		return nil, p.errorf("expected comparison operator, found %q", op.text)
	}
	var cmp sqlast.CmpOp
	switch op.text {
	case "=":
		cmp = sqlast.OpEq
	case "<>":
		cmp = sqlast.OpNe
	case "<":
		cmp = sqlast.OpLt
	case "<=":
		cmp = sqlast.OpLe
	case ">":
		cmp = sqlast.OpGt
	case ">=":
		cmp = sqlast.OpGe
	default:
		return nil, p.errorf("unexpected operator %q", op.text)
	}
	p.next()
	switch t := p.cur(); t.kind {
	case tokIdent:
		right, err := p.parseCol()
		if err != nil {
			return nil, err
		}
		if cmp != sqlast.OpEq {
			return sqlast.ColComparePred{Left: left, Op: cmp, Right: right}, nil
		}
		return sqlast.JoinPred{Left: left, Right: right}, nil
	case tokString:
		p.next()
		return sqlast.ComparePred{Col: left, Op: cmp, Value: relation.Str(t.text)}, nil
	case tokNumber:
		p.next()
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errorf("bad number %q", t.text)
			}
			return sqlast.ComparePred{Col: left, Op: cmp, Value: relation.Float(f)}, nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad number %q", t.text)
		}
		return sqlast.ComparePred{Col: left, Op: cmp, Value: relation.Int(i)}, nil
	default:
		return nil, p.errorf("expected literal or column after operator")
	}
}
