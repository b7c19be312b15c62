package main

import (
	"bufio"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// span is one benchmark-side interval around a call into a layer. Spans of
// one operation share op (the id of its root span).
type span struct {
	ID, Parent, Op uint64
	Name           string
	Start, End     int64 // ns since the trace epoch
}

// spanLog keeps the spans of one goroutine in memory; logs are merged and
// written out when the run ends. A nil log records nothing, which is how
// the untraced run stays untraced.
type spanLog struct {
	epoch time.Time
	next  uint64 // ids are unique across logs: the high bits name the log
	spans []span
}

func newSpanLog(epoch time.Time, index int) *spanLog {
	return &spanLog{epoch: epoch, next: uint64(index+1) << 40}
}

// newID hands out a span id; a parent takes its id before its children run
// so they can name it.
func (l *spanLog) newID() uint64 {
	if l == nil {
		return 0
	}
	l.next++
	return l.next
}

// put records a finished span; op is the id of the operation's root span.
func (l *spanLog) put(id, parent, op uint64, name string, start, end time.Time) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(l.epoch).Nanoseconds(), End: end.Sub(l.epoch).Nanoseconds()})
}

// root records a finished span that is an operation of its own.
func (l *spanLog) root(name string, start, end time.Time) uint64 {
	id := l.newID()
	l.put(id, 0, id, name, start, end)
	return id
}

// selfTimes returns, per span id, the span's duration minus the part of
// that interval its direct children cover (overlapping children are not
// counted twice).
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// writeSpans writes the merged logs as JSON lines.
func writeSpans(path string, logs ...*spanLog) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	for _, l := range logs {
		if l == nil {
			continue
		}
		for _, s := range l.spans {
			line = append(line[:0], `{"name":"`...)
			line = append(line, s.Name...)
			line = append(line, `","id":`...)
			line = strconv.AppendUint(line, s.ID, 10)
			line = append(line, `,"parent":`...)
			line = strconv.AppendUint(line, s.Parent, 10)
			line = append(line, `,"op":`...)
			line = strconv.AppendUint(line, s.Op, 10)
			line = append(line, `,"start_ns":`...)
			line = strconv.AppendInt(line, s.Start, 10)
			line = append(line, `,"end_ns":`...)
			line = strconv.AppendInt(line, s.End, 10)
			line = append(line, "}\n"...)
			if _, err := w.Write(line); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracer owns the span logs of a traced run: one per generator connection
// plus one for the controller (migrations, recovery, probes, the ladder).
// A nil tracer hands out nil logs.
type tracer struct {
	epoch  time.Time
	conns  [connections]*spanLog
	ctl    *spanLog
	insitu *insitu
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), insitu: &insitu{}}
	for i := range t.conns {
		t.conns[i] = newSpanLog(t.epoch, i)
	}
	t.ctl = newSpanLog(t.epoch, connections)
	return t
}

func (t *tracer) connLog(i int) *spanLog {
	if t == nil {
		return nil
	}
	return t.conns[i]
}

// phase records a controller-side root span (a migration, a recovery).
func (t *tracer) phase(name string, start, end time.Time) {
	if t != nil {
		t.ctl.root(name, start, end)
	}
}

func (t *tracer) logs() []*spanLog {
	return append(t.conns[:], t.ctl)
}
