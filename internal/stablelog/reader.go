package stablelog

// Reader reads the entries of a log's durable prefix without taking the
// log's lock, for a scan that reads thousands of entries in a row:
// recovery, where a lock round trip per entry is a measurable share of
// the restart. Durable bytes never change (see pageCursor), so all a
// reader needs is a private page cursor. It starts as a copy of the
// log's and Close hands it back, so that a scan through a Reader reads
// each page from the store as often as the same scan through the Log.
//
// A Reader serves one goroutine. It sees the entries that were durable
// when it was opened and nothing appended since.
type Reader struct {
	l *Log
	// snap is a detached Log over the durable prefix: no append
	// buffer, its own cursor, and a mutex no reader method takes.
	snap Log
}

// NewReader opens a Reader over the log's current durable prefix.
func (l *Log) NewReader() *Reader {
	l.mu.Lock()
	defer l.mu.Unlock()
	return &Reader{l: l, snap: Log{
		store:    l.store,
		pageSize: l.pageSize,
		durable:  l.durable,
		tail:     l.durable,
		pages:    l.pages,
	}}
}

// Close hands the reader's page cursor back to the log. Every page it
// holds is clipped to a durable boundary no later than the log's, so it
// is still a valid cursor there (short pages reload on demand).
func (r *Reader) Close() {
	r.l.mu.Lock()
	r.l.pages = r.snap.pages
	r.l.mu.Unlock()
}

// ReadAppend is Log.ReadAppend over the reader's durable prefix.
func (r *Reader) ReadAppend(dst []byte, lsn LSN) ([]byte, error) {
	payload, _, err := r.snap.readFrameLocked(dst, lsn)
	return payload, err
}

// ReadBackward is Log.ReadBackward over the reader's durable prefix,
// with the same borrowed-payload contract.
func (r *Reader) ReadBackward(lsn LSN, fn func(lsn LSN, payload []byte) bool) error {
	return readBackward(r.snap.readFrameLocked, lsn, fn)
}
