package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/guardian"
	"repro/internal/transport"
	"repro/internal/twopc"
	"repro/internal/value"
	"repro/internal/wire"
)

// A committer or reader is one closed-loop connection: each method
// returns only when every reply is in, so the next operation is sent no
// sooner.
type committer interface {
	// connect makes the first round trip, so that dialing is part of
	// set-up and not of the first operation.
	connect() error
	// commit runs ops, all in flight at once, and enters the
	// acknowledged ones in the ledger. It returns how many failed or
	// were refused; err reports an acknowledged reply that was wrong.
	commit(ops []op) (failed int, err error)
	close()
}

type reader interface {
	connect() error
	// read fetches keys in one batch and judges each value (exactly,
	// when nothing is writing).
	read(keys []uint32, exact bool) (failed int, err error)
	// ping makes n liveness round trips in one batch.
	ping(n int) error
	close()
}

// invokeArg is the handler argument of a single-key operation.
func (e *env) invokeArg(o op) (handler string, arg value.Value) {
	if o.kind == opPut {
		return "put", value.NewList(value.Str(e.names[o.key]), value.Bytes(putValue(o.key, o.seq)))
	}
	return "incr", value.NewList(value.Str(e.names[o.key]), value.Int(o.delta))
}

// checkReply enters an acknowledged single-key operation in the ledger
// and checks the value the handler answered with against it.
func (e *env) checkReply(o op, v value.Value) error {
	e.led.ack(o)
	if o.kind == opPut {
		b, ok := v.(value.Bytes)
		if !ok || !bytes.Equal(b, putValue(o.key, o.seq)) {
			return fmt.Errorf("put key %d version %d: reply is not the value put", o.key, o.seq)
		}
		return nil
	}
	if n, ok := v.(value.Int); !ok || int64(n) != e.led.expectInt(o.key) {
		return fmt.Errorf("incr key %d: reply %v, ledger has %d", o.key, v, e.led.expectInt(o.key))
	}
	return nil
}

// tcpCaller drives a single-guardian (or shard-addressed) server over
// one TCP connection: Invoke for one operation in flight, DoBatch for
// several.
type tcpCaller struct {
	e *env
	c *client.Client
}

func (t *tcpCaller) connect() error { return t.c.Ping() }

func (t *tcpCaller) commit(ops []op) (int, error) {
	if len(ops) == 1 {
		handler, arg := t.e.invokeArg(ops[0])
		v, err := t.c.InvokeShard(t.e.shardOf(ops[0].key), handler, arg)
		if err != nil {
			t.e.led.fail(ops[0])
			return 1, nil
		}
		return 0, t.e.checkReply(ops[0], v)
	}
	reqs := make([]wire.Request, len(ops))
	for i, o := range ops {
		handler, arg := t.e.invokeArg(o)
		reqs[i] = wire.Request{Op: wire.OpInvoke, Shard: t.e.shardOf(o.key), Handler: handler,
			Arg: value.Flatten(arg, func(value.Obj) {})}
	}
	resps, err := t.c.DoBatch(reqs)
	if err != nil {
		for _, o := range ops {
			t.e.led.fail(o)
		}
		return len(ops), nil
	}
	failed := 0
	var wrong error
	for i, resp := range resps {
		if resp.Status != wire.StatusOK {
			t.e.led.fail(ops[i])
			failed++
			continue
		}
		v, err := value.Unflatten(resp.Result)
		if err == nil {
			err = t.e.checkReply(ops[i], v)
		}
		if err != nil && wrong == nil {
			wrong = err
		}
	}
	return failed, wrong
}

func (t *tcpCaller) read(keys []uint32, exact bool) (int, error) {
	reqs := make([]wire.Request, len(keys))
	for i, k := range keys {
		reqs[i] = wire.Request{Op: wire.OpGet, Shard: t.e.shardOf(k), Handler: t.e.names[k]}
	}
	resps, err := t.c.DoBatch(reqs)
	if err != nil {
		return len(keys), nil
	}
	failed := 0
	var wrong error
	for i, resp := range resps {
		if resp.Status != wire.StatusOK {
			failed++
			continue
		}
		v, err := value.Unflatten(resp.Result)
		if err == nil {
			err = t.e.led.checkValue(keys[i], v, exact)
		}
		if err != nil && wrong == nil {
			wrong = err
		}
	}
	return failed, wrong
}

func (t *tcpCaller) ping(n int) error {
	if n == 1 {
		return t.c.Ping()
	}
	reqs := make([]wire.Request, n)
	for i := range reqs {
		reqs[i] = wire.Request{Op: wire.OpPing}
	}
	resps, err := t.c.DoBatch(reqs)
	if err != nil {
		return err
	}
	for _, r := range resps {
		if r.Status != wire.StatusOK {
			return fmt.Errorf("ping: %s %s", r.Status, r.Err)
		}
	}
	return nil
}

func (t *tcpCaller) close() {
	//roslint:besteffort nothing is in flight on a closed-loop connection between calls
	_ = t.c.Close()
}

// txnCaller drives cross-shard transfers: a routed client and its Txn,
// whose Commit is two-phase commit driven from this side of the wire.
type txnCaller struct {
	e *env
	r *client.Routed
}

func (t *txnCaller) commit(ops []op) (int, error) {
	failed := 0
	for _, o := range ops {
		if err := t.transfer(o); err != nil {
			t.e.led.fail(o)
			failed++
			continue
		}
		t.e.led.ack(o)
	}
	return failed, nil
}

// transfer moves o.delta from o.key to o.key2 in one transaction. With
// the tracer recording it splits the transaction into its three kinds
// of round trips.
func (t *txnCaller) transfer(o op) error {
	tr := t.e.tr
	root, opID := int32(-1), int64(-1)
	start := time.Now()
	if tr.enabled() {
		opID = tr.nextOp()
		root = tr.add(spanTxn, start, start, -1, opID)
	}
	step := func(name string, from time.Time) time.Time {
		now := time.Now()
		if root >= 0 {
			tr.add(name, from, now, root, opID)
		}
		return now
	}
	from, to := t.e.names[o.key], t.e.names[o.key2]
	txn, err := t.r.Begin(from)
	if err != nil {
		return err
	}
	at := step(spanTxnBegin, start)
	if _, err := txn.Invoke(from, "incr", value.NewList(value.Str(from), value.Int(-o.delta))); err != nil {
		//roslint:besteffort the invoke error is the one to report; abort only releases what the failed transaction holds
		_ = txn.Abort()
		return err
	}
	at = step(spanTxnInvoke, at)
	if _, err := txn.Invoke(to, "incr", value.NewList(value.Str(to), value.Int(o.delta))); err != nil {
		//roslint:besteffort as above
		_ = txn.Abort()
		return err
	}
	at = step(spanTxnInvoke, at)
	res, err := txn.Commit()
	if err != nil {
		return err
	}
	if res.Outcome != twopc.OutcomeCommitted || !res.Done {
		return fmt.Errorf("txn %v: outcome %v, done %v", txn.AID(), res.Outcome, res.Done)
	}
	end := step(spanTxnCommit, at)
	if root >= 0 {
		tr.setEnd(root, end)
	}
	return nil
}

func (t *txnCaller) connect() error {
	_, err := t.r.Refresh()
	return err
}

func (t *txnCaller) close() {
	//roslint:besteffort nothing is in flight on a closed-loop connection between calls
	_ = t.r.Close()
}

// inprocInvoke runs a handler as a complete top-level action, exactly
// as the server's invoke path does once a request is decoded.
func inprocInvoke(g *guardian.Guardian, handler string, arg value.Value) (value.Value, error) {
	a := g.Begin()
	v, err := guardian.Call(transport.Loopback{}, a, g, handler, arg)
	if err != nil {
		if aerr := a.Abort(); aerr != nil {
			return nil, fmt.Errorf("%v; abort: %w", err, aerr)
		}
		return nil, err
	}
	return v, a.Commit()
}

// inprocCaller calls the guardian directly: no wire, no server.
type inprocCaller struct {
	e *env
	g *guardian.Guardian
}

func (c *inprocCaller) commit(ops []op) (int, error) {
	failed := 0
	for _, o := range ops {
		handler, arg := c.e.invokeArg(o)
		v, err := inprocInvoke(c.g, handler, arg)
		if err != nil {
			c.e.led.fail(o)
			failed++
			continue
		}
		if err := c.e.checkReply(o, v); err != nil {
			return failed, err
		}
	}
	return failed, nil
}

func (c *inprocCaller) read(keys []uint32, exact bool) (int, error) {
	failed := 0
	for _, k := range keys {
		flat, err := c.g.ReadKey(c.e.names[k])
		if err != nil {
			failed++
			continue
		}
		v, err := value.Unflatten(flat)
		if err == nil {
			err = c.e.led.checkValue(k, v, exact)
		}
		if err != nil {
			return failed, err
		}
	}
	return failed, nil
}

func (c *inprocCaller) connect() error { return nil }
func (c *inprocCaller) ping(int) error { return nil }
func (c *inprocCaller) close()         {}
