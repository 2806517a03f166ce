package journal

// The journal's read path. Recovery decodes every record the daemon
// ever acknowledged, so its cost is restart time; this file is a
// single-pass decoder specialised to the package's own schema
// (Record, JobRecord and the snapshot document) that reads exactly
// the JSON the package's encoder emits and nothing else.
//
// The rule is accept => identical: whenever the decoder accepts a
// byte string, its result is what json.Unmarshal returns for the same
// bytes. It gets there by declining, not by emulating encoding/json:
// an unknown or repeated key, a key in another case, null, any string
// escape, a byte outside printable ASCII in a string, whitespace,
// trailing bytes, a number outside JSON's grammar or its field's
// range — each makes the decoder give up on the whole payload, and
// the caller hands the payload to json.Unmarshal as before. So
// journals from older daemons, hand-edited ones and non-ASCII labels
// keep working through the one general path, which is also the test
// oracle (FuzzDecodePayload).
//
// A new journaled field needs one case in the switch of its struct
// below; until it has one, records carrying it fall back to
// encoding/json (correct, slow) and TestSchemaGuard fails.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// maxInterned bounds one intern table (one per decoding goroutine of
// an Open). The interned fields (program, tenant, state, ...) take a
// handful of values; the bound only matters for free-form labels,
// which stop being interned once the table is full.
const maxInterned = 1024

// jobSlab is how many snapshot jobs one allocation holds.
const jobSlab = 128

// decoder walks one payload. A false return from any method means
// "declined": the position and any partly filled output are garbage
// and the caller must fall back.
type decoder struct {
	b []byte
	i int

	// intern maps a low-cardinality string to the one copy shared by
	// every record this goroutine decodes; nil (DecodeRecord on its
	// own) copies.
	intern map[string]string

	// slab is where the snapshot's jobs are carved from.
	slab []JobRecord

	// pieces are the stretches of the snapshot's jobs array that other
	// goroutines decode (see reader below); jobs takes each one's
	// result when it reaches its cut.
	pieces []*jobsPiece
}

// fastRecord decodes a record payload into *r, or declines and leaves
// *r alone.
func fastRecord(payload []byte, intern map[string]string, r *Record) bool {
	d := decoder{b: payload, intern: intern}
	var out Record
	if !d.record(&out) || d.i != len(payload) {
		return false
	}
	*r = out
	return true
}

// fastSnapshot decodes a snapshot document into *sf, or declines and
// leaves *sf alone. pieces (nil: none) are stretches of the jobs
// array decoded elsewhere, taken as they are reached; a piece that
// failed, or a cut the walk does not land on exactly, declines the
// document.
func fastSnapshot(doc []byte, intern map[string]string, pieces []*jobsPiece, sf *snapshotFile) bool {
	d := decoder{b: doc, intern: intern, pieces: pieces}
	var out snapshotFile
	if !d.snapshot(&out) || d.i != len(doc) {
		return false
	}
	*sf = out
	return true
}

func (d *decoder) record(r *Record) bool {
	var seen uint32
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "seq":
			return first(&seen, 0) && d.uint(&r.Seq)
		case "type":
			return first(&seen, 1) && d.interned((*string)(&r.Type))
		case "job":
			r.Job = new(JobRecord)
			return first(&seen, 2) && d.job(r.Job)
		case "cap_watts":
			return first(&seen, 3) && d.floatPtr(&r.CapWatts)
		case "pp0_watts":
			return first(&seen, 4) && d.floatPtr(&r.PP0Watts)
		case "pp1_watts":
			return first(&seen, 5) && d.floatPtr(&r.PP1Watts)
		case "policy":
			return first(&seen, 6) && d.text(&r.Policy)
		case "sim_clock_s":
			return first(&seen, 7) && d.float(&r.SimClockS)
		case "heat":
			r.Heat = new(Heat)
			return first(&seen, 8) && d.heat(r.Heat)
		}
		return false
	})
}

func (d *decoder) heat(h *Heat) bool {
	var seen uint32
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "temp_c":
			return first(&seen, 0) && d.float(&h.TempC)
		case "cpu_ceil":
			return first(&seen, 1) && d.int(&h.CPUCeil)
		case "gpu_ceil":
			return first(&seen, 2) && d.int(&h.GPUCeil)
		}
		return false
	})
}

func (d *decoder) job(jr *JobRecord) bool {
	var seen uint32
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "id":
			return first(&seen, 0) && d.text(&jr.ID)
		case "program":
			return first(&seen, 1) && d.interned(&jr.Program)
		case "scale":
			return first(&seen, 2) && d.float(&jr.Scale)
		case "label":
			return first(&seen, 3) && d.interned(&jr.Label)
		case "deadline_s":
			return first(&seen, 4) && d.float(&jr.DeadlineS)
		case "tenant":
			return first(&seen, 5) && d.interned(&jr.Tenant)
		case "priority":
			return first(&seen, 6) && d.interned(&jr.Priority)
		case "submitted_at":
			return first(&seen, 7) && d.time(&jr.SubmittedAt)
		case "arrived_sim_s":
			return first(&seen, 8) && d.float(&jr.ArrivedSimS)
		case "state":
			return first(&seen, 9) && d.interned(&jr.State)
		case "epoch":
			return first(&seen, 10) && d.int(&jr.Epoch)
		case "started_sim_s":
			return first(&seen, 11) && d.float(&jr.StartedSimS)
		case "finished_sim_s":
			return first(&seen, 12) && d.float(&jr.FinishedSimS)
		case "predicted_finish_sim_s":
			return first(&seen, 13) && d.float(&jr.PredictedFinishSimS)
		case "response_s":
			return first(&seen, 14) && d.float(&jr.ResponseS)
		case "device":
			return first(&seen, 15) && d.interned(&jr.Device)
		case "partner":
			return first(&seen, 16) && d.text(&jr.Partner)
		case "deadline_met":
			return first(&seen, 17) && d.boolPtr(&jr.DeadlineMet)
		case "error":
			return first(&seen, 18) && d.text(&jr.Error)
		}
		return false
	})
}

func (d *decoder) snapshot(sf *snapshotFile) bool {
	var seen uint32
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "version":
			return first(&seen, 0) && d.int(&sf.Version)
		case "last_seq":
			return first(&seen, 1) && d.uint(&sf.LastSeq)
		case "state":
			sf.State = new(State)
			return first(&seen, 2) && d.state(sf.State)
		}
		return false
	})
}

func (d *decoder) state(st *State) bool {
	var seen uint32
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "cap_watts":
			return first(&seen, 0) && d.floatPtr(&st.CapWatts)
		case "pp0_watts":
			return first(&seen, 1) && d.floatPtr(&st.PP0Watts)
		case "pp1_watts":
			return first(&seen, 2) && d.floatPtr(&st.PP1Watts)
		case "policy":
			return first(&seen, 3) && d.text(&st.Policy)
		case "sim_clock_s":
			return first(&seen, 4) && d.float(&st.SimClockS)
		case "heat":
			st.Heat = new(Heat)
			return first(&seen, 5) && d.heat(st.Heat)
		case "jobs":
			return first(&seen, 6) && d.jobs(&st.Jobs)
		}
		return false
	})
}

func (d *decoder) jobs(out *[]*JobRecord) bool {
	if !d.eat('[') {
		return false
	}
	// Presized from the bytes left: a done job's JSON runs 300-400
	// bytes, so this overshoots a little and append covers the rest.
	jobs := make([]*JobRecord, 0, (len(d.b)-d.i)/256)
	for !d.eat(']') {
		if len(d.pieces) > 0 && d.i >= d.pieces[0].from {
			// The next cut: it counts only if the walk ended an element
			// exactly there, and the piece from it decoded.
			p := d.pieces[0]
			<-p.done
			if d.i != p.from || !p.ok {
				return false
			}
			jobs = append(jobs, p.jobs...)
			d.i, d.pieces = p.end, d.pieces[1:]
			continue
		}
		if len(jobs) > 0 && !d.eat(',') {
			return false
		}
		jr := d.newJob()
		if !d.job(jr) {
			return false
		}
		jobs = append(jobs, jr)
	}
	if len(d.pieces) > 0 {
		// A cut past this array: not one of its element boundaries.
		return false
	}
	*out = jobs
	return true
}

func (d *decoder) newJob() *JobRecord {
	if len(d.slab) == 0 {
		d.slab = make([]JobRecord, jobSlab)
	}
	jr := &d.slab[0]
	d.slab = d.slab[1:]
	return jr
}

// first marks field n as seen and reports whether this was its first
// occurrence. encoding/json lets a repeated key overwrite (and, for
// "job", merge into) the earlier value; the fast path declines.
func first(seen *uint32, n uint) bool {
	bit := uint32(1) << n
	if *seen&bit != 0 {
		return false
	}
	*seen |= bit
	return true
}

// object reads {"key":value,...}, calling field with each key and the
// decoder positioned at its value.
func (d *decoder) object(field func(key []byte) bool) bool {
	if !d.eat('{') {
		return false
	}
	if d.eat('}') {
		return true
	}
	for {
		key, ok := d.str()
		if !ok || !d.eat(':') || !field(key) {
			return false
		}
		if d.eat('}') {
			return true
		}
		if !d.eat(',') {
			return false
		}
	}
}

func (d *decoder) eat(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// str reads a string literal of printable ASCII with no escapes —
// what the encoder emits for every string that needs none — and
// returns the bytes between the quotes.
func (d *decoder) str() ([]byte, bool) {
	if !d.eat('"') {
		return nil, false
	}
	for i := d.i; i < len(d.b); i++ {
		switch c := d.b[i]; {
		case c == '"':
			s := d.b[d.i:i]
			d.i = i + 1
			return s, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

func (d *decoder) text(p *string) bool {
	s, ok := d.str()
	if ok {
		*p = string(s)
	}
	return ok
}

func (d *decoder) interned(p *string) bool {
	b, ok := d.str()
	if !ok {
		return false
	}
	s, hit := d.intern[string(b)]
	if !hit {
		s = string(b)
		if d.intern != nil && len(d.intern) < maxInterned {
			d.intern[s] = s
		}
	}
	*p = s
	return true
}

// time hands the literal, quotes included, to the method
// encoding/json would call with the same bytes.
func (d *decoder) time(t *time.Time) bool {
	start := d.i
	if _, ok := d.str(); !ok {
		return false
	}
	return t.UnmarshalJSON(d.b[start:d.i]) == nil
}

// num reads one number token by JSON's grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, which is stricter
// than strconv's ("+1", "01", "1.", ".5", "0x10" and "1_0" all fail
// here). integer reports a token with neither fraction nor exponent.
func (d *decoder) num() (tok []byte, integer, ok bool) {
	b, i := d.b, d.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i)
	default:
		return nil, false, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		integer = false
		end := skipDigits(b, i+1)
		if end == i+1 {
			return nil, false, false
		}
		i = end
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integer = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		end := skipDigits(b, i)
		if end == i {
			return nil, false, false
		}
		i = end
	}
	tok = b[d.i:i]
	d.i = i
	return tok, integer, true
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// The number readers convert with the strconv call encoding/json
// makes for the field's kind and decline where it would report an
// error (1e999 in a float, 1.0 or an overflow in an integer).

func (d *decoder) float(p *float64) bool {
	tok, _, ok := d.num()
	if !ok {
		return false
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return false
	}
	*p = v
	return true
}

func (d *decoder) floatPtr(p **float64) bool {
	v := new(float64)
	if !d.float(v) {
		return false
	}
	*p = v
	return true
}

func (d *decoder) int(p *int) bool {
	tok, integer, ok := d.num()
	if !ok || !integer {
		return false
	}
	v, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	if err != nil {
		return false
	}
	*p = int(v)
	return true
}

func (d *decoder) uint(p *uint64) bool {
	tok, integer, ok := d.num()
	if !ok || !integer {
		return false
	}
	v, err := strconv.ParseUint(string(tok), 10, 64)
	if err != nil {
		return false
	}
	*p = v
	return true
}

func (d *decoder) boolPtr(p **bool) bool {
	v := new(bool)
	switch rest := d.b[d.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		*v = true
		d.i += len("true")
	case bytes.HasPrefix(rest, []byte("false")):
		d.i += len("false")
	default:
		return false
	}
	*p = v
	return true
}

// Recovery on every core. A reader cuts the snapshot's jobs array and
// the log into pieces, decodes them on runtime.GOMAXPROCS(0)
// goroutines at once — each with its own intern table and slab — and
// hands them back in order, so the caller applies them on its own
// goroutine exactly as a single pass would have. Neither kind of cut
// changes what is decoded:
//
//   - A log cut is a frame boundary found by walking the length
//     headers alone, the chain decodeFrame follows. A piece decodes
//     its frames up to the next cut and stops at the first that fails;
//     the caller applies pieces until the first that stopped short,
//     so the log is cut where the single pass would cut it.
//   - A snapshot cut is the comma of a jobsSep. It is a guess until
//     the goroutine decoding the document from its start — the one
//     that owns every key and bracket — ends an element exactly on it
//     and the piece from it decoded; anything else declines the split
//     decode and the whole document takes the single-pass path
//     (fastSnapshot, then encoding/json).

// jobsSep sits between two elements of a snapshot's jobs array: the
// encoder writes every job with its ID first.
var jobsSep = []byte(`},{"id":"`)

// jobsPiece is one stretch of a snapshot's jobs array: ",{job}"
// repeated from a cut up to the next cut, or (to < 0) up to the
// array's closing bracket.
type jobsPiece struct {
	from, to int
	jobs     []*JobRecord
	end      int  // where decoding stopped
	ok       bool // the stretch decoded and ended where it should
	done     chan struct{}
}

func (p *jobsPiece) decode(doc []byte, intern map[string]string) {
	defer close(p.done)
	d := decoder{b: doc, i: p.from, intern: intern}
	for !p.ok {
		if p.to >= 0 && d.i > p.to || !d.eat(',') {
			return
		}
		jr := d.newJob()
		if !d.job(jr) {
			return
		}
		p.jobs = append(p.jobs, jr)
		p.ok = d.i == p.to || p.to < 0 && d.i < len(doc) && doc[d.i] == ']'
	}
	p.end = d.i
}

// snapshotPieces cuts doc into up to n stretches of about equal size
// at the first jobsSep past each n-th of it, and returns all but the
// first (the document's head, which the caller decodes itself).
func snapshotPieces(doc []byte, n int) []*jobsPiece {
	var cuts []int
	at := 0
	for k := 1; k < n; k++ {
		at = max(at, len(doc)*k/n)
		i := bytes.Index(doc[at:], jobsSep)
		if i < 0 {
			break
		}
		at += i + 1 // the comma
		cuts = append(cuts, at)
		at++
	}
	return jobsPieces(cuts)
}

// jobsPieces returns the pieces that start at cuts, which increase.
func jobsPieces(cuts []int) []*jobsPiece {
	pieces := make([]*jobsPiece, len(cuts))
	for k, cut := range cuts {
		pieces[k] = &jobsPiece{from: cut, to: -1, done: make(chan struct{})}
		if k > 0 {
			pieces[k-1].to = cut
		}
	}
	return pieces
}

// logPiece is a run of whole frames of the log.
type logPiece struct {
	from, to int
	recs     []Record
	slow     int // records the schema decoder declined
	end      int // past the last frame decoded: short of to where one failed
}

func (p *logPiece) decode(log []byte, intern map[string]string) {
	off := p.from
	for off < p.to {
		r, n, slow, err := decodeFrame(log[off:], intern)
		if err != nil {
			break
		}
		if slow {
			p.slow++
		}
		p.recs = append(p.recs, r)
		off += n
	}
	p.end = off
}

// logPieces cuts log into up to n runs of about equal size at frame
// boundaries, walking the length headers. The walk stops at the first
// header that cannot start a whole frame; the rest of the log is the
// last run's, whose decoder then stops where a single pass would.
func logPieces(log []byte, n int) []*logPiece {
	pieces := []*logPiece{{}}
	off, frames := 0, 0
	for len(log)-off >= frameHeader {
		size := int(binary.LittleEndian.Uint32(log[off:]))
		if size == 0 || size > MaxRecordBytes || size > len(log)-off-frameHeader {
			break
		}
		off += frameHeader + size
		frames++
		if len(pieces) < n && off < len(log) && off >= len(log)*len(pieces)/n {
			p := pieces[len(pieces)-1]
			p.to, p.recs, frames = off, make([]Record, 0, frames), 0
			pieces = append(pieces, &logPiece{from: off})
		}
	}
	p := pieces[len(pieces)-1]
	p.to, p.recs = len(log), make([]Record, 0, frames)
	return pieces
}

// reader decodes a snapshot document and a log's content at once.
// Its tasks — the snapshot's pieces, then the log's — are pulled in
// order by workers-1 goroutines it starts and, once the snapshot is
// done, by the caller's.
type reader struct {
	doc      []byte
	snapshot []*jobsPiece
	log      []*logPiece
	tasks    []func(intern map[string]string)
	next     atomic.Int64
	wg       sync.WaitGroup
	intern   map[string]string // the caller's
}

func newReader(doc, log []byte, workers int) *reader {
	r := &reader{doc: doc, intern: make(map[string]string)}
	r.snapshot = snapshotPieces(doc, workers)
	r.log = logPieces(log, workers)
	for _, p := range r.snapshot {
		r.tasks = append(r.tasks, func(intern map[string]string) { p.decode(doc, intern) })
	}
	for _, p := range r.log {
		r.tasks = append(r.tasks, func(intern map[string]string) { p.decode(log, intern) })
	}
	for range min(workers, len(r.tasks)+1) - 1 {
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.work(make(map[string]string))
		}()
	}
	return r
}

func (r *reader) work(intern map[string]string) {
	for {
		i := int(r.next.Add(1)) - 1
		if i >= len(r.tasks) {
			return
		}
		r.tasks[i](intern)
	}
}

// decodeSnapshot decodes the document on the caller's goroutine,
// taking the pieces' jobs as it reaches their cuts; slow reports that
// encoding/json decoded it.
func (r *reader) decodeSnapshot(sf *snapshotFile) (slow bool, err error) {
	if fastSnapshot(r.doc, r.intern, r.snapshot, sf) ||
		len(r.snapshot) > 0 && fastSnapshot(r.doc, r.intern, nil, sf) {
		return false, nil
	}
	return true, json.Unmarshal(r.doc, sf)
}

// decodeLog decodes what no goroutine has started yet on the caller's,
// waits for the rest, and returns the log's pieces in order.
func (r *reader) decodeLog() []*logPiece {
	r.work(r.intern)
	r.wg.Wait()
	return r.log
}
