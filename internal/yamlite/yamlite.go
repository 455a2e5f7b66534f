// Package yamlite implements the small YAML subset used by the
// framework's post-processing plot configs. The paper's framework drives
// post-processing "via a YAML configuration file" (§2.4); the standard
// library has no YAML support, so this package provides just enough:
//
//   - block mappings (indentation-based)
//   - block sequences ("- " items, including sequences of mappings)
//   - scalars: strings (plain, 'single' or "double" quoted), integers,
//     floats, booleans, null
//   - comments introduced by '#'
//
// It deliberately omits anchors, aliases, multi-document streams, flow
// collections spanning lines, and block scalars.
package yamlite

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Value is the result of parsing: one of
// map[string]Value, []Value, string, int64, float64, bool, or nil.
type Value interface{}

// Parse decodes a document into a Value.
func Parse(text string) (Value, error) {
	p := &docParser{}
	for _, raw := range strings.Split(text, "\n") {
		line, ok := stripLine(raw)
		if !ok {
			continue
		}
		p.lines = append(p.lines, line)
	}
	if len(p.lines) == 0 {
		return nil, nil
	}
	v, next, err := p.parseBlock(0, p.lines[0].indent)
	if err != nil {
		return nil, err
	}
	if next != len(p.lines) {
		return nil, fmt.Errorf("yamlite: line %d: unexpected content %q", p.lines[next].num, p.lines[next].text)
	}
	return v, nil
}

type line struct {
	num    int // 1-based source line number
	indent int
	text   string // content with indentation stripped
}

// stripLine removes comments and trailing space; returns ok=false for
// blank/comment-only lines.
func stripLine(raw string) (line, bool) {
	// Track quoting so '#' inside quotes survives.
	indent := 0
	for indent < len(raw) && raw[indent] == ' ' {
		indent++
	}
	if indent < len(raw) && raw[indent] == '\t' {
		// Treat tabs as errors later by leaving them in the text.
		return line{indent: indent, text: raw[indent:]}, true
	}
	content := raw[indent:]
	inS, inD := false, false
	for i := 0; i < len(content); i++ {
		switch c := content[i]; {
		case c == '\'' && !inD:
			inS = !inS
		case c == '"' && !inS:
			inD = !inD
		case c == '#' && !inS && !inD && (i == 0 || content[i-1] == ' ' || content[i-1] == '\t'):
			content = content[:i]
		}
		if i >= len(content) {
			break
		}
	}
	content = strings.TrimRight(content, " \r")
	if content == "" {
		return line{}, false
	}
	return line{indent: indent, text: content}, true
}

type docParser struct {
	lines []line
}

// parseBlock parses the lines beginning at index i with the given
// indentation, returning the value and the index of the first unconsumed
// line.
func (p *docParser) parseBlock(i, indent int) (Value, int, error) {
	if i >= len(p.lines) {
		return nil, i, fmt.Errorf("yamlite: unexpected end of input")
	}
	l := p.lines[i]
	if strings.HasPrefix(l.text, "\t") || strings.Contains(l.text, "\t") && strings.HasPrefix(strings.TrimLeft(l.text, " "), "\t") {
		return nil, i, fmt.Errorf("yamlite: line %d: tabs are not allowed for indentation", l.num)
	}
	if strings.HasPrefix(l.text, "- ") || l.text == "-" {
		return p.parseSequence(i, indent)
	}
	if keyOf(l.text) != "" {
		return p.parseMapping(i, indent)
	}
	// Bare scalar document.
	v, err := parseScalar(l.text)
	if err != nil {
		return nil, i, fmt.Errorf("yamlite: line %d: %w", l.num, err)
	}
	return v, i + 1, nil
}

func (p *docParser) parseMapping(i, indent int) (Value, int, error) {
	m := map[string]Value{}
	for i < len(p.lines) {
		l := p.lines[i]
		if l.indent < indent {
			break
		}
		if l.indent > indent {
			return nil, i, fmt.Errorf("yamlite: line %d: unexpected indentation", l.num)
		}
		key := keyOf(l.text)
		if key == "" {
			return nil, i, fmt.Errorf("yamlite: line %d: expected 'key:' mapping entry, got %q", l.num, l.text)
		}
		if _, dup := m[unquote(key)]; dup {
			return nil, i, fmt.Errorf("yamlite: line %d: duplicate key %q", l.num, key)
		}
		rest := strings.TrimSpace(l.text[len(key)+1:])
		i++
		if rest != "" {
			v, err := parseScalar(rest)
			if err != nil {
				return nil, i, fmt.Errorf("yamlite: line %d: %w", l.num, err)
			}
			m[unquote(key)] = v
			continue
		}
		// Value is the following indented block (or null if none).
		if i >= len(p.lines) || p.lines[i].indent <= indent {
			m[unquote(key)] = nil
			continue
		}
		v, next, err := p.parseBlock(i, p.lines[i].indent)
		if err != nil {
			return nil, i, err
		}
		m[unquote(key)] = v
		i = next
	}
	return m, i, nil
}

func (p *docParser) parseSequence(i, indent int) (Value, int, error) {
	var seq []Value
	for i < len(p.lines) {
		l := p.lines[i]
		if l.indent != indent || (!strings.HasPrefix(l.text, "- ") && l.text != "-") {
			if l.indent >= indent && len(seq) > 0 {
				return nil, i, fmt.Errorf("yamlite: line %d: expected '- ' sequence item", l.num)
			}
			break
		}
		if l.text == "-" {
			// Item is the following indented block.
			i++
			if i >= len(p.lines) || p.lines[i].indent <= indent {
				seq = append(seq, nil)
				continue
			}
			v, next, err := p.parseBlock(i, p.lines[i].indent)
			if err != nil {
				return nil, i, err
			}
			seq = append(seq, v)
			i = next
			continue
		}
		rest := l.text[2:]
		// An item of the form "- key: value" starts an inline mapping
		// whose further keys sit at indent+2.
		if k := keyOf(rest); k != "" {
			// Rewrite this line as a mapping line at a deeper indent
			// and parse a mapping block from here.
			saved := p.lines[i]
			p.lines[i] = line{num: l.num, indent: indent + 2, text: rest}
			v, next, err := p.parseMapping(i, indent+2)
			p.lines[i] = saved
			if err != nil {
				return nil, i, err
			}
			seq = append(seq, v)
			i = next
			continue
		}
		v, err := parseScalar(rest)
		if err != nil {
			return nil, i, fmt.Errorf("yamlite: line %d: %w", l.num, err)
		}
		seq = append(seq, v)
		i++
	}
	return seq, i, nil
}

// keyOf returns the mapping key if the text begins a "key:" entry,
// else "".
func keyOf(text string) string {
	inS, inD := false, false
	for i := 0; i < len(text); i++ {
		c := text[i]
		switch {
		case c == '\'' && !inD:
			inS = !inS
		case c == '"' && !inS:
			inD = !inD
		case c == ':' && !inS && !inD:
			if i+1 == len(text) || text[i+1] == ' ' {
				key := strings.TrimSpace(text[:i])
				if key == "" || strings.HasPrefix(key, "- ") {
					return ""
				}
				return key
			}
		}
	}
	return ""
}

func unquote(s string) string {
	if len(s) >= 2 {
		if s[0] == '\'' && s[len(s)-1] == '\'' {
			return strings.ReplaceAll(s[1:len(s)-1], "''", "'")
		}
		if s[0] == '"' && s[len(s)-1] == '"' {
			if u, err := strconv.Unquote(s); err == nil {
				return u
			}
		}
	}
	return s
}

func parseScalar(s string) (Value, error) {
	s = strings.TrimSpace(s)
	if len(s) >= 2 && (s[0] == '\'' || s[0] == '"') {
		if s[0] == '\'' && s[len(s)-1] == '\'' {
			return strings.ReplaceAll(s[1:len(s)-1], "''", "'"), nil
		}
		if s[0] == '"' && s[len(s)-1] == '"' {
			u, err := strconv.Unquote(s)
			if err != nil {
				return nil, fmt.Errorf("bad quoted string %s", s)
			}
			return u, nil
		}
		return nil, fmt.Errorf("unterminated quoted string %s", s)
	}
	switch s {
	case "null", "~", "Null", "NULL":
		return nil, nil
	case "true", "True", "TRUE":
		return true, nil
	case "false", "False", "FALSE":
		return false, nil
	}
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return n, nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return f, nil
	}
	return s, nil
}

// --- Typed accessors -----------------------------------------------------

// Map asserts v is a mapping.
func Map(v Value) (map[string]Value, error) {
	m, ok := v.(map[string]Value)
	if !ok {
		return nil, fmt.Errorf("yamlite: expected mapping, got %T", v)
	}
	return m, nil
}

// Seq asserts v is a sequence.
func Seq(v Value) ([]Value, error) {
	s, ok := v.([]Value)
	if !ok {
		return nil, fmt.Errorf("yamlite: expected sequence, got %T", v)
	}
	return s, nil
}

// Str asserts v is a string (numbers and bools are stringified).
func Str(v Value) (string, error) {
	switch x := v.(type) {
	case string:
		return x, nil
	case int64:
		return strconv.FormatInt(x, 10), nil
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64), nil
	case bool:
		return strconv.FormatBool(x), nil
	default:
		return "", fmt.Errorf("yamlite: expected string, got %T", v)
	}
}

// Keys returns a mapping's keys, sorted, for deterministic iteration.
func Keys(m map[string]Value) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
