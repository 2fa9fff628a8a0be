package shard

// The row codec: result rows are the bulk of every shard and task file,
// so they are written and read without reflection. appendRow writes
// exactly the bytes json.Encoder writes for the same line; scanRow reads
// that form back, strings without escapes, and declines anything else
// (reordered keys, inner whitespace, escapes, a trailer), which Salvage
// then hands to encoding/json with the rest of the stream (DESIGN.md
// §19). FuzzRowCodec holds both halves to encoding/json.

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"

	"repro/internal/dse"
)

// appendRow appends one row and its newline to b, exactly the bytes
// json.Encoder writes for the same line: the design row when m is
// non-nil, else the error row carrying msg, which is not empty. Floats
// follow encoding/json's float64 rule; a NaN or infinite metric fails
// with encoding/json's error and appends nothing. The row comes in parts,
// not as a line: a string passed from a line to json.Marshal would take
// the whole line, index and metrics included, to the heap.
//
//repro:hotpath
func appendRow(b []byte, index int, m *dse.Metrics, msg string) ([]byte, error) {
	n := len(b)
	b = append(b, `{"index":`...)
	b = strconv.AppendInt(b, int64(index), 10)
	if m == nil {
		b = append(b, `,"error":`...)
		b = appendString(b, msg)
		return append(b, "}\n"...), nil
	}
	for _, f := range [...]float64{m.ClockNs, m.TimeUs, m.SliceUtil} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return b[:n], unsupportedFloat(f)
		}
	}
	b = append(b, `,"design":{`...)
	if m.Algorithm != "" {
		b = append(b, `"algorithm":`...)
		b = appendString(b, m.Algorithm)
		b = append(b, ',')
	}
	b = append(b, `"registers":`...)
	b = strconv.AppendInt(b, int64(m.Registers), 10)
	b = append(b, `,"cycles":`...)
	b = strconv.AppendInt(b, int64(m.Cycles), 10)
	b = append(b, `,"tmem":`...)
	b = strconv.AppendInt(b, int64(m.MemCycles), 10)
	b = append(b, `,"clock_ns":`...)
	b = appendFloat(b, m.ClockNs)
	b = append(b, `,"time_us":`...)
	b = appendFloat(b, m.TimeUs)
	b = append(b, `,"slices":`...)
	b = strconv.AppendInt(b, int64(m.Slices), 10)
	b = append(b, `,"slice_util_pct":`...)
	b = appendFloat(b, m.SliceUtil)
	b = append(b, `,"brams":`...)
	b = strconv.AppendInt(b, int64(m.RAMs), 10)
	return append(b, "}}\n"...), nil
}

// appendString appends s as encoding/json quotes it, HTML escapes
// included. Only error rows and portfolio winners carry a string.
//
//repro:hotpath
func appendString(b []byte, s string) []byte {
	q, _ := json.Marshal(s) //repro:allowalloc error rows and portfolio winners only; a string always marshals
	return append(b, q...)
}

// appendFloat appends a finite f as encoding/json writes a float64: the
// shortest 'f' form for zero and 1e-6 ≤ |f| < 1e21, else the shortest
// 'e' form with a two-digit negative exponent's leading zero dropped.
//
//repro:hotpath
func appendFloat(b []byte, f float64) []byte {
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		b = strconv.AppendFloat(b, f, 'e', -1, 64)
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
		return b
	}
	return strconv.AppendFloat(b, f, 'f', -1, 64)
}

// unsupportedFloat is the error encoding/json returns for a NaN or
// infinite float64.
func unsupportedFloat(f float64) error {
	return &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
}

// scanRow decodes text, one line of a shard or task file, into ln when
// the line holds exactly one row in the form appendRow writes, with
// whitespace around it at most, and reports whether it did; it leaves ln
// alone otherwise. Keys must come in the writer's order; integers are
// JSON integers that fit an int and floats JSON numbers, both parsed with
// strconv as encoding/json parses them; strings are printable ASCII
// without '"' or '\'. Whenever it accepts, json.Unmarshal of the line
// gives the same line.
func scanRow(text []byte, ln *line) bool {
	sc := rowScanner{b: text}
	sc.space()
	sc.lit(`{"index":`)
	index := sc.integer()
	if sc.has(`,"error":`) {
		msg := sc.str()
		sc.lit("}")
		if !sc.end() {
			return false
		}
		*ln = line{Index: new(int), Error: msg}
		*ln.Index = index
		return true
	}
	var m dse.Metrics
	sc.lit(`,"design":{`)
	if sc.has(`"algorithm":`) {
		m.Algorithm = sc.str()
		sc.lit(",")
	}
	sc.lit(`"registers":`)
	m.Registers = sc.integer()
	sc.lit(`,"cycles":`)
	m.Cycles = sc.integer()
	sc.lit(`,"tmem":`)
	m.MemCycles = sc.integer()
	sc.lit(`,"clock_ns":`)
	m.ClockNs = sc.float()
	sc.lit(`,"time_us":`)
	m.TimeUs = sc.float()
	sc.lit(`,"slices":`)
	m.Slices = sc.integer()
	sc.lit(`,"slice_util_pct":`)
	m.SliceUtil = sc.float()
	sc.lit(`,"brams":`)
	m.RAMs = sc.integer()
	sc.lit("}}")
	if !sc.end() {
		return false
	}
	*ln = line{Index: new(int), Design: new(dse.Metrics)}
	*ln.Index, *ln.Design = index, m
	return true
}

// rowScanner reads one row left to right. A failed step marks it bad and
// every later step is a no-op, so a row's steps chain without a check
// after each and one check at the end.
type rowScanner struct {
	b   []byte
	bad bool
}

// lit consumes the literal s.
func (sc *rowScanner) lit(s string) {
	if !sc.has(s) {
		sc.bad = true
	}
}

// has consumes the literal s if it comes next, and reports whether it did.
func (sc *rowScanner) has(s string) bool {
	if sc.bad || len(sc.b) < len(s) || string(sc.b[:len(s)]) != s {
		return false
	}
	sc.b = sc.b[len(s):]
	return true
}

// end reports whether the row parsed and only whitespace follows it.
func (sc *rowScanner) end() bool {
	sc.space()
	return !sc.bad && len(sc.b) == 0
}

// space consumes JSON whitespace.
func (sc *rowScanner) space() {
	for len(sc.b) > 0 && (sc.b[0] == ' ' || sc.b[0] == '\t' || sc.b[0] == '\r' || sc.b[0] == '\n') {
		sc.b = sc.b[1:]
	}
}

// number consumes one JSON number and returns its text, and whether it
// has neither fraction nor exponent.
func (sc *rowScanner) number() (text []byte, integer bool) {
	if sc.bad {
		return nil, false
	}
	b := sc.b
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		sc.bad = true
		return nil, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			sc.bad = true
			return nil, false
		}
		i, integer = j, false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		j := i + 1
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		k := digits(b, j)
		if k == j {
			sc.bad = true
			return nil, false
		}
		i, integer = k, false
	}
	sc.b = b[i:]
	return b[:i], integer
}

// digits returns the end of the run of decimal digits from b[i].
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// integer consumes a JSON integer that fits an int.
func (sc *rowScanner) integer() int {
	text, integer := sc.number()
	if sc.bad {
		return 0
	}
	n, err := strconv.ParseInt(string(text), 10, 0)
	if !integer || err != nil {
		sc.bad = true
	}
	return int(n)
}

// float consumes a JSON number that strconv parses as a float64.
func (sc *rowScanner) float() float64 {
	text, _ := sc.number()
	if sc.bad {
		return 0
	}
	f, err := strconv.ParseFloat(string(text), 64)
	if err != nil {
		sc.bad = true
	}
	return f
}

// str consumes a string of printable ASCII without '"' or '\'.
func (sc *rowScanner) str() string {
	if sc.bad || len(sc.b) == 0 || sc.b[0] != '"' {
		sc.bad = true
		return ""
	}
	for i := 1; i < len(sc.b); i++ {
		switch c := sc.b[i]; {
		case c == '"':
			s := string(sc.b[1:i])
			sc.b = sc.b[i+1:]
			return s
		case c < 0x20 || c > 0x7e || c == '\\':
			sc.bad = true
			return ""
		}
	}
	sc.bad = true
	return ""
}
