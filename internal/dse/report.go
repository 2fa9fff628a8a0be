package dse

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/hls"
	"repro/internal/obs"
)

// Reporter renders a buffered result set. Every reporter is a thin wrapper
// over its streaming counterpart (the Stream method), so buffered and
// streamed renderings of the same results are byte-identical by
// construction, and output is byte-identical whatever worker count — or
// shard partition — produced the set.
type Reporter interface {
	Report(w io.Writer, rs *ResultSet) error
}

// Renderer is what every dse reporter provides: a buffered Report (for
// callers that hold the whole set anyway, like merge) and a streaming form
// (for live exploration). The two renderings are byte-identical by
// construction.
type Renderer interface {
	Reporter
	Stream(w io.Writer) StreamReporter
}

// RendererFor maps a CLI/API format name to its renderer, with the stock
// presentation options (CSV carries the pareto column, JSON is indented) —
// the single source of the format vocabulary for cmd/dse and the serve API,
// which is what keeps their outputs byte-identical.
func RendererFor(format string) (Renderer, error) {
	switch format {
	case "table":
		return TableReporter{}, nil
	case "csv":
		return CSVReporter{Pareto: true}, nil
	case "json":
		return JSONReporter{Indent: true}, nil
	}
	return nil, fmt.Errorf("unknown format %q (want table, csv or json)", format)
}

// InstrumentReporter wraps a stream reporter so every Begin/Point/End call
// is timed into the "report/<name>" stage — the reporter-encode cost of the
// sweep. With a nil Metrics the reporter is returned unwrapped, so the
// disabled path has zero indirection. Output bytes are untouched either way.
func InstrumentReporter(sr StreamReporter, m *obs.Metrics, name string) StreamReporter {
	if m == nil {
		return sr
	}
	return &instrumentedReporter{sr: sr, s: m.Stage("report/" + name)}
}

type instrumentedReporter struct {
	sr StreamReporter
	s  *obs.StageStats
}

func (i *instrumentedReporter) Begin(sp Space, total int) error {
	tm := i.s.Start()
	defer tm.Stop()
	return i.sr.Begin(sp, total)
}

func (i *instrumentedReporter) Point(r Result) error {
	tm := i.s.Start()
	defer tm.Stop()
	return i.sr.Point(r)
}

func (i *instrumentedReporter) End(st StreamStats) error {
	tm := i.s.Start()
	defer tm.Stop()
	return i.sr.End(st)
}

// replay feeds a buffered result set through a stream reporter.
func replay(rs *ResultSet, sr StreamReporter) error {
	if err := sr.Begin(rs.Space, len(rs.Results)); err != nil {
		return err
	}
	st := StreamStats{Points: len(rs.Results), UniqueSims: rs.UniqueSims}
	for _, r := range rs.Results {
		if !r.Ok() {
			st.Failed++
		}
		if err := sr.Point(r); err != nil {
			return err
		}
	}
	st.FirstErr = rs.FirstErr()
	return sr.End(st)
}

// CSVReporter writes one row per design point.
type CSVReporter struct {
	// Pareto adds a trailing column marking kernel-frontier membership.
	// The mark needs hindsight over the whole kernel (a later point can
	// dominate an earlier row), so with Pareto set the streaming reporter
	// holds the current kernel's results and flushes them at each kernel
	// boundary, marked from the frontier tracker — memory is one kernel
	// block, freed per kernel. Without Pareto every row streams straight
	// through the in-flight window.
	Pareto bool
}

// Report implements Reporter.
func (c CSVReporter) Report(w io.Writer, rs *ResultSet) error {
	return replay(rs, c.Stream(w))
}

// Stream returns the streaming form of the reporter.
func (c CSVReporter) Stream(w io.Writer) StreamReporter {
	return &csvStream{cw: csv.NewWriter(w), pareto: c.Pareto, ft: newFrontierTracker()}
}

type csvStream struct {
	cw     *csv.Writer
	pareto bool
	all    bool             // portfolio-all: member rows + role column
	kernel string           // current kernel block (pareto mode)
	block  []Result         // pending rows of the current kernel block (pareto mode)
	ft     *frontierTracker // the current block's frontier (pareto mode)
}

func (c *csvStream) Begin(sp Space, total int) error {
	c.all = sp.PortfolioAll
	header := []string{"kernel", "algorithm"}
	if c.all {
		header = append(header, "role")
	}
	header = append(header,
		"rmax", "device", "sched",
		"registers", "cycles", "tmem", "clock_ns", "time_us", "slices", "slice_util_pct", "brams", "error",
	)
	if c.pareto {
		header = append(header, "pareto")
	}
	return c.cw.Write(header)
}

// writeResult emits one result: its (winner) row, then — in portfolio-all
// mode — one member row per portfolio member, in allocator order. Member
// rows are diagnostics: they carry no pareto mark (the frontier is over
// the winners).
func (c *csvStream) writeResult(r Result, pareto, onFrontier bool) error {
	if err := c.cw.Write(c.record(r, roleWinner, nil, pareto, onFrontier)); err != nil {
		return err
	}
	for _, m := range r.Members {
		if err := c.cw.Write(c.record(r, roleMember, m, pareto, false)); err != nil {
			return err
		}
	}
	return nil
}

func (c *csvStream) Point(r Result) error {
	if !c.pareto {
		return c.writeResult(r, false, false)
	}
	// Canonical point order is kernel-outermost, so each kernel arrives
	// as one contiguous run and a kernel-name change closes the block.
	if r.Point.Kernel.Name != c.kernel {
		if err := c.flushBlock(); err != nil {
			return err
		}
		c.kernel = r.Point.Kernel.Name
	}
	c.block = append(c.block, r)
	c.ft.add(r)
	return nil
}

// flushBlock writes the buffered kernel block with its frontier marks.
func (c *csvStream) flushBlock() error {
	if len(c.block) == 0 {
		return nil
	}
	onFront := map[int]bool{}
	for _, r := range c.ft.byKernel[c.kernel] {
		onFront[r.Point.Index] = true
	}
	delete(c.ft.byKernel, c.kernel)
	for _, r := range c.block {
		if err := c.writeResult(r, true, onFront[r.Point.Index]); err != nil {
			return err
		}
	}
	c.block = c.block[:0]
	return nil
}

func (c *csvStream) End(StreamStats) error {
	if err := c.flushBlock(); err != nil {
		return err
	}
	c.cw.Flush()
	return c.cw.Error()
}

// algoName returns the algorithm a result row reports: the design's own
// algorithm when present — for portfolio points that is the winning
// allocator; for ordinary points it equals the axis coordinate — falling
// back to the point's allocator for failed rows.
func algoName(r Result) string {
	if r.Ok() && r.Design.Algorithm != "" {
		return r.Design.Algorithm
	}
	return r.Point.Allocator.Name()
}

const (
	roleWinner = "winner"
	roleMember = "member"
)

// record renders one CSV row. A nil member renders the result's own
// (winning) design; a member design renders that member's metrics under
// the same point coordinates.
func (c *csvStream) record(r Result, role string, member *hls.Design, pareto, onFrontier bool) []string {
	p := r.Point
	d, algo := r.Design, algoName(r)
	if member != nil {
		d, algo = member, member.Algorithm
	}
	rec := []string{p.Kernel.Name, algo}
	if c.all {
		rec = append(rec, role)
	}
	rec = append(rec, strconv.Itoa(p.EffectiveBudget()), p.Device.Name, p.Sched.Name)
	if r.Ok() {
		rec = append(rec,
			strconv.Itoa(d.Registers), strconv.Itoa(d.Cycles), strconv.Itoa(d.MemCycles),
			formatTenths(d.ClockNs), formatTenths(d.TimeUs),
			strconv.Itoa(d.Slices), formatTenths(d.SliceUtil), strconv.Itoa(d.RAMs), "")
	} else {
		rec = append(rec, "", "", "", "", "", "", "", "", errString(r))
	}
	if pareto {
		m := ""
		if member == nil {
			m = mark(onFrontier)
		}
		rec = append(rec, m)
	}
	return rec
}

// formatTenths renders f as fmt's "%.1f" does, byte for byte, without
// fmt and without strconv's fixed-precision path, which works in big
// decimals (strconv.bigFtoa): it rounds the shortest digits that identify
// f at the first decimal, carry included. Rounding those digits rounds
// f's exact value to the same tenth, since no tenths boundary (a tenth
// and a half) lies between f and its shortest digits, except in three
// cases, which take the exact path:
//
//   - the shortest digits end in a tie, exactly one 5 after the first
//     decimal: f's exact value may lie on either side of it;
//   - |f| ≥ 1e15, where the shortest digits may round off integer digits;
//   - NaN and ±Inf.
//
// FuzzTenths holds it to fmt.
func formatTenths(f float64) string {
	if !(math.Abs(f) < 1e15) { // NaN compares false
		return strconv.FormatFloat(f, 'f', 1, 64)
	}
	var buf [32]byte
	s := strconv.AppendFloat(buf[:0], f, 'f', -1, 64)
	dot := bytes.IndexByte(s, '.')
	switch {
	case dot < 0:
		return string(append(s, '.', '0'))
	case len(s) == dot+2:
		return string(s)
	case len(s) == dot+3 && s[dot+2] == '5':
		return strconv.FormatFloat(f, 'f', 1, 64)
	}
	up := s[dot+2] >= '5'
	s = s[:dot+2]
	if !up {
		return string(s)
	}
	i := len(s) - 1
	for ; i >= 0 && s[i] != '-'; i-- {
		switch s[i] {
		case '.':
		case '9':
			s[i] = '0'
		default:
			s[i]++
			return string(s)
		}
	}
	// Every digit was a 9: the carry is a new leading 1, after any sign.
	s = append(s, 0)
	copy(s[i+2:], s[i+1:])
	s[i+1] = '1'
	return string(s)
}

func mark(on bool) string {
	if on {
		return "1"
	}
	return "0"
}

// errString renders a failed result's error; a hand-built Result with
// neither design nor error still gets a stable message instead of a panic.
func errString(r Result) string {
	if r.Err != nil {
		return r.Err.Error()
	}
	return "no design"
}

// JSONReporter writes the result set as one JSON document: the space
// axes, one record per point, and the per-kernel Pareto frontiers.
type JSONReporter struct {
	Indent bool
}

type jsonSpace struct {
	Kernels    []string `json:"kernels"`
	Allocators []string `json:"allocators"`
	Budgets    []int    `json:"budgets"`
	Devices    []string `json:"devices"`
	Scheds     []string `json:"scheds"`
	Portfolio  bool     `json:"portfolio,omitempty"`
}

type jsonPoint struct {
	ID        string   `json:"id"`
	Kernel    string   `json:"kernel"`
	Algorithm string   `json:"algorithm"`
	Rmax      int      `json:"rmax"`
	Device    string   `json:"device"`
	Sched     string   `json:"sched"`
	Metrics   *Metrics `json:"metrics,omitempty"`
	// Portfolio carries every member allocator's metrics (allocator order,
	// winner included) in portfolio-all diagnostic mode.
	Portfolio []jsonMember `json:"portfolio,omitempty"`
	Error     string       `json:"error,omitempty"`
}

type jsonMember struct {
	Algorithm string  `json:"algorithm"`
	Metrics   Metrics `json:"metrics"`
}

// Metrics is the portable record of one design: exactly what the reporters
// and the Pareto objectives read. The JSON reporter and shard rows both
// encode it; float64 fields round-trip bit-exactly through encoding/json
// (shortest-representation encoding), which keeps merged output
// byte-identical.
type Metrics struct {
	// Algorithm is set only where the record must name its design's
	// allocator: a shard row whose design's algorithm differs from the
	// point's allocator coordinate (the winner of a portfolio point).
	// Reporter records leave it empty, and so do ordinary shard rows,
	// which keeps their encodings byte-identical to earlier writers.
	Algorithm string  `json:"algorithm,omitempty"`
	Registers int     `json:"registers"`
	Cycles    int     `json:"cycles"`
	MemCycles int     `json:"tmem"`
	ClockNs   float64 `json:"clock_ns"`
	TimeUs    float64 `json:"time_us"`
	Slices    int     `json:"slices"`
	SliceUtil float64 `json:"slice_util_pct"`
	RAMs      int     `json:"brams"`
}

// MetricsOf returns the design's record, Algorithm left empty.
func MetricsOf(d *hls.Design) Metrics {
	return Metrics{
		Registers: d.Registers,
		Cycles:    d.Cycles,
		MemCycles: d.MemCycles,
		ClockNs:   d.ClockNs,
		TimeUs:    d.TimeUs,
		Slices:    d.Slices,
		SliceUtil: d.SliceUtil,
		RAMs:      d.RAMs,
	}
}

// Design rebuilds the design the record describes, for the named kernel
// and algorithm — the inverse of MetricsOf.
func (m Metrics) Design(kernel, algorithm string) *hls.Design {
	return &hls.Design{
		Kernel:    kernel,
		Algorithm: algorithm,
		Registers: m.Registers,
		Cycles:    m.Cycles,
		MemCycles: m.MemCycles,
		ClockNs:   m.ClockNs,
		TimeUs:    m.TimeUs,
		Slices:    m.Slices,
		SliceUtil: m.SliceUtil,
		RAMs:      m.RAMs,
	}
}

type jsonFrontier struct {
	Kernel string   `json:"kernel"`
	Points []string `json:"points"` // point IDs on the frontier
}

// Report implements Reporter.
func (j JSONReporter) Report(w io.Writer, rs *ResultSet) error {
	return replay(rs, j.Stream(w))
}

// Stream returns the streaming form of the reporter: the points array is
// emitted one record at a time and the pareto section is assembled by the
// incremental frontier tracker, so only the frontier is retained.
func (j JSONReporter) Stream(w io.Writer) StreamReporter {
	return &jsonStream{w: w, indent: j.Indent, ft: newFrontierTracker()}
}

type jsonStream struct {
	w      io.Writer
	indent bool
	ft     *frontierTracker
	sp     Space
	n      int // points written so far
}

// fragment marshals v, in indent mode indented to sit at the given prefix
// inside the hand-assembled document (the first line carries no prefix,
// matching where the caller writes it).
func (s *jsonStream) fragment(v any, prefix string) ([]byte, error) {
	if !s.indent {
		return json.Marshal(v)
	}
	return json.MarshalIndent(v, prefix, "  ")
}

func (s *jsonStream) Begin(sp Space, total int) error {
	s.sp = sp
	js := jsonSpace{Budgets: sp.Budgets, Portfolio: sp.Portfolio}
	for _, k := range sp.Kernels {
		js.Kernels = append(js.Kernels, k.Name)
	}
	for _, a := range sp.Allocators {
		js.Allocators = append(js.Allocators, a.Name())
	}
	for _, d := range sp.Devices {
		js.Devices = append(js.Devices, d.Name)
	}
	for _, sv := range sp.Scheds {
		js.Scheds = append(js.Scheds, sv.Name)
	}
	frag, err := s.fragment(js, "  ")
	if err != nil {
		return err
	}
	if s.indent {
		_, err = fmt.Fprintf(s.w, "{\n  \"space\": %s,\n  \"points\": [", frag)
	} else {
		_, err = fmt.Fprintf(s.w, "{\"space\":%s,\"points\":[", frag)
	}
	return err
}

func (s *jsonStream) Point(r Result) error {
	s.ft.add(r)
	frag, err := s.fragment(jsonPointOf(r), "    ")
	if err != nil {
		return err
	}
	sep := ""
	if s.n > 0 {
		sep = ","
	}
	if s.indent {
		_, err = fmt.Fprintf(s.w, "%s\n    %s", sep, frag)
	} else {
		_, err = fmt.Fprintf(s.w, "%s%s", sep, frag)
	}
	s.n++
	return err
}

func (s *jsonStream) End(StreamStats) error {
	fronts := make([]jsonFrontier, 0, len(s.sp.Kernels))
	for _, kf := range s.ft.frontiers(s.sp.Kernels) {
		jf := jsonFrontier{Kernel: kf.Kernel, Points: []string{}}
		for _, r := range kf.Points {
			jf.Points = append(jf.Points, r.Point.ID())
		}
		fronts = append(fronts, jf)
	}
	frag, err := s.fragment(fronts, "  ")
	if err != nil {
		return err
	}
	if s.indent {
		closePoints := "]"
		if s.n > 0 {
			closePoints = "\n  ]"
		}
		_, err = fmt.Fprintf(s.w, "%s,\n  \"pareto\": %s\n}\n", closePoints, frag)
	} else {
		_, err = fmt.Fprintf(s.w, "],\"pareto\":%s}\n", frag)
	}
	return err
}

func jsonPointOf(r Result) jsonPoint {
	p := r.Point
	jp := jsonPoint{
		ID:        p.ID(),
		Kernel:    p.Kernel.Name,
		Algorithm: algoName(r),
		Rmax:      p.EffectiveBudget(),
		Device:    p.Device.Name,
		Sched:     p.Sched.Name,
	}
	if r.Ok() {
		m := MetricsOf(r.Design)
		jp.Metrics = &m
		for _, d := range r.Members {
			jp.Portfolio = append(jp.Portfolio, jsonMember{Algorithm: d.Algorithm, Metrics: MetricsOf(d)})
		}
	} else {
		jp.Error = errString(r)
	}
	return jp
}

// TableReporter renders a fixed-width text table with a per-kernel Pareto
// frontier summary, for interactive use. Rows stream; only the frontier
// (for the trailer) is retained.
type TableReporter struct{}

// Report implements Reporter.
func (t TableReporter) Report(w io.Writer, rs *ResultSet) error {
	return replay(rs, t.Stream(w))
}

// Stream returns the streaming form of the reporter.
func (TableReporter) Stream(w io.Writer) StreamReporter {
	return &tableStream{w: w, ft: newFrontierTracker()}
}

type tableStream struct {
	w  io.Writer
	ft *frontierTracker
	sp Space
}

func (t *tableStream) Begin(sp Space, total int) error {
	t.sp = sp
	_, err := fmt.Fprintf(t.w, "%-8s %-8s %5s %-16s %-10s %6s %10s %10s %9s %7s %6s\n",
		"kernel", "algo", "rmax", "device", "sched", "regs", "cycles", "clock_ns", "time_us", "slices", "brams")
	return err
}

func (t *tableStream) Point(r Result) error {
	t.ft.add(r)
	p := r.Point
	if !r.Ok() {
		_, err := fmt.Fprintf(t.w, "%-8s %-8s %5d %-16s %-10s  ERROR: %s\n",
			p.Kernel.Name, p.Allocator.Name(), p.EffectiveBudget(), p.Device.Name, p.Sched.Name, errString(r))
		return err
	}
	d := r.Design
	if _, err := fmt.Fprintf(t.w, "%-8s %-8s %5d %-16s %-10s %6d %10d %10.1f %9.1f %7d %6d\n",
		p.Kernel.Name, algoName(r), p.EffectiveBudget(), p.Device.Name, p.Sched.Name,
		d.Registers, d.Cycles, d.ClockNs, d.TimeUs, d.Slices, d.RAMs); err != nil {
		return err
	}
	// Portfolio-all diagnostic: one indented row per member allocator, so
	// the win margin over the runners-up reads off the table directly.
	for _, m := range r.Members {
		if _, err := fmt.Fprintf(t.w, "%-8s  %-7s %5d %-16s %-10s %6d %10d %10.1f %9.1f %7d %6d\n",
			"", "·"+m.Algorithm, p.EffectiveBudget(), p.Device.Name, p.Sched.Name,
			m.Registers, m.Cycles, m.ClockNs, m.TimeUs, m.Slices, m.RAMs); err != nil {
			return err
		}
	}
	return nil
}

func (t *tableStream) End(StreamStats) error {
	var lines []string
	for _, kf := range t.ft.frontiers(t.sp.Kernels) {
		var ids []string
		for _, r := range kf.Points {
			ids = append(ids, fmt.Sprintf("%s/r%d/%s/%s",
				r.Point.Allocator.Name(), r.Point.EffectiveBudget(), r.Point.Device.Name, r.Point.Sched.Name))
		}
		lines = append(lines, fmt.Sprintf("  %-8s %s", kf.Kernel, strings.Join(ids, "  ")))
	}
	_, err := fmt.Fprintf(t.w, "\npareto frontier per kernel (time_us × slices × registers):\n%s\n", strings.Join(lines, "\n"))
	return err
}
