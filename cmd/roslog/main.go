// Command roslog renders the thesis's log-scenario figures: it builds
// the exact log of a figure (3-7, 3-8, 3-9, 3-10 for the simple log;
// 4-2, 4-3 for the hybrid log), dumps every entry in the thesis's tuple
// notation, runs recovery, and prints the resulting PT/CT/OT tables —
// the same tables the thesis prints at the end of each scenario
// (§3.4.2, §4.3.2, §4.4).
//
// Usage:
//
//	roslog -figure 3-7|3-8|3-9|3-10|4-2|4-3|all
//	roslog -dir <path> [-format hybrid|simple]   # dump an on-disk log
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/hybridlog"
	"repro/internal/ids"
	"repro/internal/logrec"
	"repro/internal/object"
	"repro/internal/shadow"
	"repro/internal/simplelog"
	"repro/internal/stable"
	"repro/internal/stablelog"
	"repro/internal/value"
)

var (
	figure = flag.String("figure", "all", "which figure to render")
	dir    = flag.String("dir", "", "dump the current log of a file-backed volume at this directory")
	format = flag.String("format", "hybrid", "entry format of the on-disk log: hybrid or simple")
)

var (
	gP = ids.GuardianID(1)
	t1 = ids.ActionID{Coordinator: gP, Seq: 1}
	t2 = ids.ActionID{Coordinator: gP, Seq: 2}
	t3 = ids.ActionID{Coordinator: gP, Seq: 3}
)

func main() {
	flag.Parse()
	if *dir != "" {
		dumpDir(*dir, *format)
		return
	}
	figs := map[string]func(){
		"1-1": fig11,
		"3-7": fig37, "3-8": fig38, "3-9": fig39, "3-10": fig310,
		"4-2": fig42, "4-3": fig43,
	}
	if *figure == "all" {
		for _, name := range []string{"1-1", "3-7", "3-8", "3-9", "3-10", "4-2", "4-3"} {
			figs[name]()
		}
		return
	}
	fn, ok := figs[*figure]
	if !ok {
		fmt.Fprintf(os.Stderr, "roslog: unknown figure %q\n", *figure)
		os.Exit(2)
	}
	fn()
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "roslog:", err)
		os.Exit(1)
	}
}

// dumpDir opens a file-backed volume (as written by examples/persistent
// or any guardian on a FileVolume), dumps its current log, and — for
// the hybrid format — shows the recovered tables.
func dumpDir(path, format string) {
	vol, err := stablelog.NewFileVolume(path, 512, false)
	die(err)
	//roslint:besteffort read-only dump tool exiting right after; Close releases descriptors only
	defer vol.Close()
	site, err := stablelog.OpenSite(vol)
	die(err)
	log := site.Log()
	fmt.Printf("%s: log generation %d, %d entries, %d bytes\n",
		path, site.Generation(), log.Entries(), log.Size())
	switch format {
	case "simple":
		dump(log, logrec.Simple)
		tables, err := simplelog.Recover(log)
		die(err)
		fmt.Println(" recovered state:")
		printSimpleTables(tables)
	case "hybrid":
		dump(log, logrec.Hybrid)
		tables, err := hybridlog.Recover(log)
		die(err)
		fmt.Println(" recovered state:")
		printPT(tables.PT)
		printCT(tables.CT)
		printHeap(tables.Heap)
	default:
		fmt.Fprintf(os.Stderr, "roslog: unknown format %q\n", format)
		os.Exit(2)
	}
}

func newLog() *stablelog.Log {
	a := stable.NewMemDevice(256, nil)
	b := stable.NewMemDevice(256, nil)
	store, err := stable.NewStore(a, b)
	die(err)
	return stablelog.New(store)
}

func flat(v value.Value) []byte { return value.Flatten(v, nil) }

// dump prints every entry of the log in order with its address.
func dump(log *stablelog.Log, format logrec.Format) {
	type row struct {
		lsn stablelog.LSN
		e   *logrec.Entry
	}
	var rows []row
	die(log.ReadBackward(log.LastAppended(), func(lsn stablelog.LSN, p []byte) bool {
		// p is borrowed until this callback returns; the rows outlive
		// it, which is safe because Decode copies what it keeps.
		e, err := logrec.Decode(format, p)
		die(err)
		rows = append(rows, row{lsn, e})
		return true
	}))
	for i := len(rows) - 1; i >= 0; i-- {
		fmt.Printf("  %-6v %v\n", rows[i].lsn, rows[i].e)
	}
}

func printSimpleTables(t *simplelog.Tables) {
	printPT(t.PT)
	printCT(t.CT)
	printHeap(t.Heap)
	fmt.Println()
}

func printPT(pt map[ids.ActionID]simplelog.PartState) {
	if len(pt) == 0 {
		return
	}
	fmt.Println("  PT:")
	aids := make([]ids.ActionID, 0, len(pt))
	for aid := range pt {
		aids = append(aids, aid)
	}
	sort.Slice(aids, func(i, j int) bool { return aids[i].Seq < aids[j].Seq })
	for _, aid := range aids {
		fmt.Printf("    %-8v %v\n", aid, pt[aid])
	}
}

func printCT(ct map[ids.ActionID]simplelog.CoordInfo) {
	if len(ct) == 0 {
		return
	}
	fmt.Println("  CT:")
	for aid, ci := range ct {
		if ci.State == simplelog.CoordCommitting {
			fmt.Printf("    %-8v committing %v\n", aid, ci.GIDs)
		} else {
			fmt.Printf("    %-8v done\n", aid)
		}
	}
}

func printHeap(h *object.Heap) {
	fmt.Println("  OT (restored objects):")
	for _, uid := range h.UIDs() {
		o, _ := h.Lookup(uid)
		switch x := o.(type) {
		case *object.Atomic:
			line := fmt.Sprintf("    %-5v atomic base=%s", uid, value.String(x.Base()))
			if w := x.Writer(); !w.IsZero() {
				if cur, ok := x.Current(); ok {
					line += fmt.Sprintf(" current=%s writer=%v", value.String(cur), w)
				}
			}
			fmt.Println(line)
		case *object.Mutex:
			fmt.Printf("    %-5v mutex  current=%s\n", uid, value.String(x.Current()))
		}
	}
}

// --- figure 1-1: the shadowing scheme ------------------------------------

// fig11 drives the shadow store through a commit and an in-flight
// prepare and dumps the map and version area, the structure of thesis
// Figure 1-1 ("shadowed objects").
func fig11() {
	fmt.Println("Figure 1-1 — shadowing: a map points at the current version of every object")
	heap := object.NewHeap()
	o1 := object.NewAtomic(2, value.Int(1), ids.NoAction)
	o2 := object.NewAtomic(3, value.Int(2), ids.NoAction)
	root := object.NewAtomic(ids.StableVarsUID,
		value.RecordOf("x", value.Ref{Target: o1}, "y", value.Ref{Target: o2}), ids.NoAction)
	heap.Register(root)
	heap.Register(o1)
	heap.Register(o2)

	devs := make([]*stable.MemDevice, 4)
	for i := range devs {
		devs[i] = stable.NewMemDevice(256, nil)
	}
	vsStore, err := stable.NewStore(devs[0], devs[1])
	die(err)
	rootStore, err := stable.NewStore(devs[2], devs[3])
	die(err)
	store := shadow.New(stablelog.New(vsStore), rootStore, heap)

	// Commit the initial state, then a modification, then leave one
	// action prepared (its version shadows the installed one).
	boot := ids.ActionID{Coordinator: 1, Seq: 1}
	die(store.Prepare(boot, object.MOS{}))
	die(store.Commit(boot))
	upd := ids.ActionID{Coordinator: 1, Seq: 2}
	die(o1.AcquireWrite(upd))
	die(o1.Replace(upd, value.Int(11)))
	die(store.Prepare(upd, object.MOS{o1}))
	die(store.Commit(upd))
	o1.Commit(upd)
	shadowed := ids.ActionID{Coordinator: 1, Seq: 3}
	die(o2.AcquireWrite(shadowed))
	die(o2.Replace(shadowed, value.Int(22)))
	die(store.Prepare(shadowed, object.MOS{o2}))

	fmt.Printf("  map: %d objects installed; map writes so far: %d (one per commit)\n",
		store.MapSize(), store.MapWrites)
	fmt.Printf("  version area: %d records, %d bytes — old versions are never overwritten\n",
		store.Log().Entries(), store.Log().Size())
	fmt.Println("  O3's new version (22) is written but shadowed: the map still points at 2")
	fmt.Println("  until the action commits and a new map is installed in one atomic step.")
	fmt.Println()
}

// --- simple-log figures --------------------------------------------------

func appendSimple(log *stablelog.Log, entries ...*logrec.Entry) {
	for _, e := range entries {
		_, err := log.Write(logrec.Encode(logrec.Simple, e))
		die(err)
	}
	die(log.Force())
}

func data(uid ids.UID, k object.Kind, v value.Value, aid ids.ActionID) *logrec.Entry {
	return &logrec.Entry{Kind: logrec.KindData, UID: uid, ObjType: k, Value: flat(v), AID: aid}
}

func bc(uid ids.UID, v value.Value) *logrec.Entry {
	return &logrec.Entry{Kind: logrec.KindBaseCommitted, UID: uid, Value: flat(v)}
}

func out(kind logrec.Kind, aid ids.ActionID) *logrec.Entry {
	return &logrec.Entry{Kind: kind, AID: aid}
}

func renderSimple(title string, log *stablelog.Log) {
	fmt.Println(title)
	fmt.Println(" log contents:")
	dump(log, logrec.Simple)
	tables, err := simplelog.Recover(log)
	die(err)
	fmt.Println(" after recovery:")
	printSimpleTables(tables)
}

func fig37() {
	log := newLog()
	appendSimple(log,
		bc(1, value.Int(1)),
		bc(2, value.Int(2)),
		data(2, object.KindAtomic, value.Int(22), t1),
		out(logrec.KindPrepared, t1),
		out(logrec.KindCommitted, t1),
		data(1, object.KindAtomic, value.Int(111), t2),
		out(logrec.KindPrepared, t2),
	)
	renderSimple("Figure 3-7 — simple log, atomic objects (T1 committed, T2 prepared)", log)
}

func fig38() {
	log := newLog()
	appendSimple(log,
		data(1, object.KindMutex, value.Int(1), t1),
		data(2, object.KindMutex, value.Int(2), t1),
		out(logrec.KindPrepared, t1),
		out(logrec.KindCommitted, t1),
		data(1, object.KindMutex, value.Int(111), t2),
		out(logrec.KindPrepared, t2),
		out(logrec.KindAborted, t2),
	)
	renderSimple("Figure 3-8 — mutex objects (T2 prepared then aborted; its version survives)", log)
}

func fig39() {
	log := newLog()
	appendSimple(log,
		bc(1, value.Int(10)),
		bc(2, value.Int(20)),
		out(logrec.KindPrepared, t1),
		out(logrec.KindCommitted, t1),
		data(1, object.KindAtomic, value.NewList(value.UIDRef{UID: 3}), t2),
		bc(3, value.Int(30)),
		data(3, object.KindAtomic, value.Int(33), t2),
		out(logrec.KindPrepared, t2),
		data(2, object.KindAtomic, value.NewList(value.UIDRef{UID: 3}), t3),
		out(logrec.KindPrepared, t3),
		out(logrec.KindAborted, t2),
		out(logrec.KindCommitted, t3),
	)
	renderSimple("Figure 3-9 — newly accessible O3 survives T2's abort (needed by committed T3)", log)
}

func fig310() {
	log := newLog()
	appendSimple(log,
		bc(1, value.Int(1)),
		data(1, object.KindAtomic, value.Int(11), t1),
		bc(2, value.Int(2)),
		out(logrec.KindPrepared, t1),
		out(logrec.KindCommitted, t1),
		data(2, object.KindAtomic, value.Int(22), t2),
		out(logrec.KindPrepared, t2),
		&logrec.Entry{Kind: logrec.KindCommitting, AID: t2, GIDs: []ids.GuardianID{1, 2, 3}},
		out(logrec.KindCommitted, t2),
		out(logrec.KindDone, t2),
	)
	renderSimple("Figure 3-10 — coordinator's log (committing/done entries)", log)
}

// --- hybrid-log figures ----------------------------------------------------

type hybridBuilder struct {
	log   *stablelog.Log
	chain stablelog.LSN
}

func (b *hybridBuilder) data(k object.Kind, v value.Value) stablelog.LSN {
	lsn, err := b.log.Write(logrec.Encode(logrec.Hybrid, &logrec.Entry{
		Kind: logrec.KindData, ObjType: k, Value: flat(v)}))
	die(err)
	return lsn
}

func (b *hybridBuilder) out(e *logrec.Entry) {
	e.Prev = b.chain
	lsn, err := b.log.Write(logrec.Encode(logrec.Hybrid, e))
	die(err)
	b.chain = lsn
}

func renderHybrid(title string, log *stablelog.Log) {
	fmt.Println(title)
	fmt.Println(" log contents:")
	dump(log, logrec.Hybrid)
	tables, err := hybridlog.Recover(log)
	die(err)
	fmt.Println(" after recovery:")
	printPT(tables.PT)
	printCT(tables.CT)
	printHeap(tables.Heap)
	fmt.Printf("  cost: %d outcome entries followed, %d data entries fetched\n\n",
		tables.OutcomesRead, tables.DataRead)
}

func fig42() {
	b := &hybridBuilder{log: newLog(), chain: stablelog.NoLSN}
	b.out(&logrec.Entry{Kind: logrec.KindBaseCommitted, UID: 1, Value: flat(value.Int(1))})
	l1 := b.data(object.KindAtomic, value.Int(10))
	l2 := b.data(object.KindMutex, value.Int(20))
	b.out(&logrec.Entry{Kind: logrec.KindPrepared, AID: t1,
		Pairs: []logrec.UIDLSN{{UID: 1, Addr: l1}, {UID: 2, Addr: l2}}})
	b.out(&logrec.Entry{Kind: logrec.KindCommitted, AID: t1})
	l1p := b.data(object.KindAtomic, value.Int(100))
	l2p := b.data(object.KindMutex, value.Int(200))
	b.out(&logrec.Entry{Kind: logrec.KindPrepared, AID: t2,
		Pairs: []logrec.UIDLSN{{UID: 1, Addr: l1p}, {UID: 2, Addr: l2p}}})
	die(b.log.Force())
	renderHybrid("Figure 4-2 — hybrid log: prepared entries carry ⟨uid, log address⟩ pairs", b.log)
}

func fig43() {
	b := &hybridBuilder{log: newLog(), chain: stablelog.NoLSN}
	lT1o1 := b.data(object.KindMutex, value.Str("O1 by T1 (older)"))
	lT2o1 := b.data(object.KindMutex, value.Str("O1 by T2 (latest)"))
	lT2o2 := b.data(object.KindAtomic, value.Int(2))
	lT2o3 := b.data(object.KindAtomic, value.Int(3))
	b.out(&logrec.Entry{Kind: logrec.KindPrepared, AID: t2, Pairs: []logrec.UIDLSN{
		{UID: 1, Addr: lT2o1}, {UID: 2, Addr: lT2o2}, {UID: 3, Addr: lT2o3}}})
	lT1o4 := b.data(object.KindAtomic, value.Int(4))
	b.out(&logrec.Entry{Kind: logrec.KindPrepared, AID: t1, Pairs: []logrec.UIDLSN{
		{UID: 1, Addr: lT1o1}, {UID: 4, Addr: lT1o4}}})
	b.out(&logrec.Entry{Kind: logrec.KindCommitted, AID: t1})
	die(b.log.Force())
	renderHybrid("Figure 4-3 — early prepare interleaving: latest mutex version wins by address", b.log)
}
