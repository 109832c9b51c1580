// xmlface.go is the registry's XML codec: the paper's UDDI documents
// POSTed over HTTP, decoded into the one typed request serve runs, and
// its reply encoded back as a document.
package uddi

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"homeconnect/internal/xmltree"
)

// Handler returns the HTTP face of the registry: the private face of an
// open home. All operations POST an XML document to it.
func (s *Server) Handler() http.Handler { return s.HTTPHandler(Face{}, nil) }

// HTTPHandler returns face f over HTTP. caller names a request's
// authenticated caller (identity.CallerFrom behind an auth middleware);
// nil makes every caller anonymous.
func (s *Server) HTTPHandler(f Face, caller func(*http.Request) string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		who := ""
		if caller != nil {
			who = caller(r)
		}
		req := decodeXMLRequest(r)
		rep := s.serve(r.Context(), &f, who, &req)
		s.writeXMLReply(w, &req, &rep)
	})
}

// xmlFields reads a request document's optional numeric children,
// keeping the first malformed one as the request's decode error.
type xmlFields struct {
	root *xmltree.Element
	fail *failure
}

func (d *xmlFields) bad(name, text string) {
	if d.fail == nil {
		d.fail = &failure{http.StatusBadRequest, "E_fatalError", "bad " + name + " " + text}
	}
}

// uint reads an unsigned child; absent is zero.
func (d *xmlFields) uint(name string) uint64 {
	t := d.root.ChildText(name)
	if t == "" {
		return 0
	}
	v, err := strconv.ParseUint(t, 10, 64)
	if err != nil {
		d.bad(name, t)
	}
	return v
}

// millis reads a millisecond-valued child; absent is zero (each
// operation's "use the default").
func (d *xmlFields) millis(name string) time.Duration {
	t := d.root.ChildText(name)
	if t == "" {
		return 0
	}
	ms, err := strconv.Atoi(t)
	if err != nil || ms < 0 {
		d.bad(name, t)
		return 0
	}
	return time.Duration(ms) * time.Millisecond
}

// decodeXMLRequest reads one request document off r.
func decodeXMLRequest(r *http.Request) request {
	fail := func(status int, code, info string) request {
		return request{fail: &failure{status, code, info}}
	}
	if r.Method != http.MethodPost {
		return fail(http.StatusMethodNotAllowed, "E_unsupported", "POST required")
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBytes))
	if err != nil {
		return fail(http.StatusBadRequest, "E_fatalError", "read: "+err.Error())
	}
	root, err := xmltree.Parse(data)
	if err != nil {
		return fail(http.StatusBadRequest, "E_fatalError", "parse: "+err.Error())
	}
	req := request{name: root.Name.Local}
	d := xmlFields{root: root}
	switch req.name {
	case "save_service":
		req.op = opSave
		if svc := root.Child("service"); svc != nil {
			req.entries = []Entry{entryFromXML(svc)}
		}
		req.ttl = d.millis("ttlms")
	case "save_services":
		req.op = opSave
		for _, svc := range root.All("service") {
			req.entries = append(req.entries, entryFromXML(svc))
		}
		req.ttl = d.millis("ttlms")
	case "delete_service":
		req.op, req.key = opDelete, root.ChildText("serviceKey")
	case "find_service":
		req.op = opFind
		req.query = Query{Name: root.ChildText("name"), TModel: root.ChildText("tModel")}
		for _, c := range root.All("category") {
			if req.query.Categories == nil {
				req.query.Categories = make(map[string]string)
			}
			req.query.Categories[c.Attr("keyName")] = c.Attr("keyValue")
		}
	case "get_serviceDetail":
		req.op, req.key = opGet, root.ChildText("serviceKey")
	case "watch", "repl_watch":
		req.op = opWatch
		if req.name == "repl_watch" {
			req.op = opReplWatch
		}
		req.since = d.uint("since")
		req.epoch = d.uint("epoch")
		req.timeout = d.millis("timeoutms")
	case "state_page":
		req.op = opPage
		req.epoch = d.uint("epoch")
		req.after = root.ChildText("after")
	case "repl_status":
		req.op = opReplStatus
	default:
		return fail(http.StatusBadRequest, "E_unsupported", "unknown request "+req.name)
	}
	req.fail = d.fail
	return req
}

// writeXMLReply encodes a served request's reply as its response document.
func (s *Server) writeXMLReply(w http.ResponseWriter, req *request, rep *reply) {
	if f := rep.fail; f != nil {
		writeError(w, f.status, f.code, f.info)
		return
	}
	xw := xmltree.NewWriter()
	switch req.op {
	case opSave:
		xw.Open("serviceDetail")
		for _, key := range rep.keys {
			xw.Leaf("serviceKey", key)
		}
	case opDelete:
		xw.SelfClose("dispositionReport", "result", "ok")
	case opFind:
		xw.Open("serviceList", "seq", strconv.FormatUint(rep.seq, 10))
		for _, e := range rep.entries {
			entryToXML(xw, e)
		}
	case opGet:
		xw.Open("serviceDetail")
		for _, e := range rep.entries {
			entryToXML(xw, e)
		}
	case opWatch, opReplWatch:
		// A replication feed's replChangeList also carries the leader,
		// and each replChange its lease deadline.
		lease := req.op == opReplWatch
		frag, next := xmlChanges(rep, lease)
		attrs := []string{
			"next", strconv.FormatUint(next, 10),
			"resync", strconv.FormatBool(rep.resync),
			"epoch", strconv.FormatUint(rep.epoch, 10),
		}
		if lease {
			xw.Open("replChangeList", append(attrs, "leader", rep.leader)...)
		} else {
			xw.Open("changeList", attrs...)
		}
		xw.Raw(frag)
	case opReplStatus:
		st := rep.status
		xw.SelfClose("replStatus",
			"seq", strconv.FormatUint(st.Seq, 10),
			"epoch", strconv.FormatUint(st.Epoch, 10),
			"leader", st.Leader,
			"role", st.Role,
			"replicaOf", st.ReplicaOf,
		)
	case opPage:
		// A statePage document of pageEntry elements, encoded straight
		// from the registry's records; the continuation key trails in a
		// next element.
		p := &rep.page
		xw.Grow(pageBytes + pageSlack)
		xw.Open("statePage",
			"seq", strconv.FormatUint(p.Seq, 10),
			"epoch", strconv.FormatUint(p.Epoch, 10),
			"leader", p.Leader,
			"boundary", strconv.FormatUint(p.Boundary, 10),
		)
		next := s.walkPage(rep.after, rep.view, func(e Entry, exp time.Time) bool {
			var expMS int64
			if !exp.IsZero() {
				expMS = exp.UnixMilli()
			}
			xw.Open("pageEntry", "expiresms", strconv.FormatInt(expMS, 10))
			entryToXML(xw, e)
			xw.Close()
			return xw.Len() >= pageBytes
		})
		xw.Leaf("next", next)
	}
	writeXML(w, xw.Bytes())
}

// xmlChanges encodes a watch batch's change elements (replChange
// elements with their lease deadlines, with lease) as a fragment,
// stopping once it passes pageBytes, and returns it with the cursor to
// resume from (see reply.batch).
func xmlChanges(rep *reply, lease bool) ([]byte, uint64) {
	var frag xmltree.Writer
	next := rep.batch(func(c Change) bool {
		encodeChange(&frag, c, lease)
		return frag.Len() >= pageBytes
	})
	return frag.Bytes(), next
}

// encodeXMLRequest encodes a request as its XML document. Each case
// opens its element with a constant name: the writer keeps the names it
// opens, and one holding req.name would move every request a client
// builds to the heap.
func encodeXMLRequest(req *request) []byte {
	w := xmltree.NewWriter()
	ttl := func() {
		if req.ttl > 0 {
			w.Leaf("ttlms", strconv.Itoa(int(req.ttl/time.Millisecond)))
		}
	}
	timeout := func() {
		if req.timeout > 0 {
			w.Leaf("timeoutms", strconv.Itoa(int(req.timeout/time.Millisecond)))
		}
	}
	switch req.name {
	case "save_service":
		w.Open("save_service")
		entryToXML(w, req.entries[0])
		ttl()
	case "save_services":
		w.Open("save_services")
		ttl()
		for _, e := range req.entries {
			entryToXML(w, e)
		}
	case "delete_service":
		w.Open("delete_service").Leaf("serviceKey", req.key)
	case "get_serviceDetail":
		w.Open("get_serviceDetail").Leaf("serviceKey", req.key)
	case "repl_status":
		w.Open("repl_status")
	case "find_service":
		w.Open("find_service")
		q := req.query
		if q.Name != "" {
			w.Leaf("name", q.Name)
		}
		if q.TModel != "" {
			w.Leaf("tModel", q.TModel)
		}
		keys := make([]string, 0, len(q.Categories))
		for k := range q.Categories {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			w.SelfClose("category", "keyName", k, "keyValue", q.Categories[k])
		}
	case "watch":
		w.Open("watch")
		w.Leaf("since", strconv.FormatUint(req.since, 10))
		timeout()
		if req.epoch > 0 {
			w.Leaf("epoch", strconv.FormatUint(req.epoch, 10))
		}
	case "repl_watch":
		w.Open("repl_watch")
		w.Leaf("since", strconv.FormatUint(req.since, 10))
		w.Leaf("epoch", strconv.FormatUint(req.epoch, 10))
		timeout()
	case "state_page":
		w.Open("state_page")
		w.Leaf("after", req.after)
		w.Leaf("epoch", strconv.FormatUint(req.epoch, 10))
	}
	return w.Bytes()
}

// xmlAttrs reads a response's numeric attributes, keeping the first
// malformed one as the decode error.
type xmlAttrs struct{ err error }

func (a *xmlAttrs) uint(el *xmltree.Element, name string) uint64 {
	v, err := strconv.ParseUint(el.Attr(name), 10, 64)
	if err != nil && a.err == nil {
		a.err = fmt.Errorf("uddi: bad %s %s: %w", el.Name.Local, name, err)
	}
	return v
}

// millis reads a Unix-millisecond deadline; 0 is no deadline.
func (a *xmlAttrs) millis(el *xmltree.Element, name string) time.Time {
	ms, err := strconv.ParseInt(el.Attr(name), 10, 64)
	if err != nil && a.err == nil {
		a.err = fmt.Errorf("uddi: bad %s %s: %w", el.Name.Local, name, err)
	}
	if ms == 0 {
		return time.Time{}
	}
	return time.UnixMilli(ms)
}

// xmlReplyRoots names, per operation whose response root the client
// checks, the operation and the root it wants.
var xmlReplyRoots = map[opKind][2]string{opWatch: {"watch", "changeList"},
	opReplStatus: {"repl_status", "replStatus"}, opReplWatch: {"repl_watch", "replChangeList"},
	opPage: {"state_page", "statePage"}}

// decodeXMLReply decodes the response document to req.
func decodeXMLReply(req *request, root *xmltree.Element) (rep reply, err error) {
	var a xmlAttrs
	if want, ok := xmlReplyRoots[req.op]; ok && root.Name.Local != want[1] {
		return reply{}, fmt.Errorf("uddi: %s response root %s", want[0], root.Name.Local)
	}
	switch req.op {
	case opSave:
		for _, el := range root.All("serviceKey") {
			rep.keys = append(rep.keys, strings.TrimSpace(el.Text))
		}
	case opFind:
		// Older registries omit the attribute; zero means "no fence".
		rep.seq, _ = strconv.ParseUint(root.Attr("seq"), 10, 64)
		for _, svc := range root.All("service") {
			rep.entries = append(rep.entries, entryFromXML(svc))
		}
	case opGet:
		if svc := root.Child("service"); svc != nil {
			rep.entries = []Entry{entryFromXML(svc)}
		}
	case opWatch, opReplWatch:
		rep.next = a.uint(root, "next")
		rep.resync = root.Attr("resync") == "true"
		// A change list without an epoch (an older server) reads as
		// epoch 0 — unknown.
		if req.op == opReplWatch || root.Attr("epoch") != "" {
			rep.epoch = a.uint(root, "epoch")
		}
		rep.leader = root.Attr("leader")
		rep.changes, err = decodeChanges(root, &a, req.op == opReplWatch)
	case opReplStatus:
		rep.status = ReplStatus{Seq: a.uint(root, "seq"), Epoch: a.uint(root, "epoch"),
			Leader: root.Attr("leader"), Role: root.Attr("role"), ReplicaOf: root.Attr("replicaOf")}
	case opPage:
		p := &rep.page
		p.Seq, p.Epoch = a.uint(root, "seq"), a.uint(root, "epoch")
		p.Leader, p.Boundary = root.Attr("leader"), a.uint(root, "boundary")
		for _, el := range root.All("pageEntry") {
			exp := a.millis(el, "expiresms")
			svc := el.Child("service")
			if svc == nil {
				return reply{}, fmt.Errorf("uddi: pageEntry without service")
			}
			p.Entries = append(p.Entries, entryFromXML(svc))
			p.Deadlines = append(p.Deadlines, exp)
		}
		p.Next = root.ChildText("next")
	}
	if err == nil {
		err = a.err
	}
	if err != nil {
		return reply{}, err
	}
	return rep, nil
}

// encodeChange writes one change element of a watch response or, with
// lease, one replChange element of a feed response, which also carries
// an add or update's lease deadline.
func encodeChange(xw *xmltree.Writer, c Change, lease bool) {
	el := "change"
	if lease {
		el = "replChange"
	}
	seq := strconv.FormatUint(c.Seq, 10)
	switch c.Op {
	case OpAdd, OpUpdate:
		if lease {
			var expMS int64
			if !c.Expires.IsZero() {
				expMS = c.Expires.UnixMilli()
			}
			xw.Open(el, "seq", seq, "op", string(c.Op), "expiresms", strconv.FormatInt(expMS, 10))
		} else {
			xw.Open(el, "seq", seq, "op", string(c.Op))
		}
		entryToXML(xw, c.Entry)
		xw.Close()
	default:
		xw.SelfClose(el, "seq", seq, "op", string(c.Op), "serviceKey", c.Entry.Key, "name", c.Entry.Name)
	}
}

// decodeChanges reads a change list's change elements or, with lease,
// its replChange elements and their lease deadlines.
func decodeChanges(root *xmltree.Element, a *xmlAttrs, lease bool) ([]Change, error) {
	el := "change"
	if lease {
		el = "replChange"
	}
	var changes []Change
	for _, ce := range root.All(el) {
		c := Change{Seq: a.uint(ce, "seq"), Op: ChangeOp(ce.Attr("op"))}
		switch c.Op {
		case OpAdd, OpUpdate:
			if lease {
				c.Expires = a.millis(ce, "expiresms")
			}
			svc := ce.Child("service")
			if svc == nil {
				return nil, fmt.Errorf("uddi: %s %s without service", c.Op, el)
			}
			c.Entry = entryFromXML(svc)
		case OpDelete, OpExpire:
			c.Entry = Entry{Key: ce.Attr("serviceKey"), Name: ce.Attr("name")}
		default:
			return nil, fmt.Errorf("uddi: unknown %s op %q", el, ce.Attr("op"))
		}
		changes = append(changes, c)
	}
	return changes, nil
}

// entryToXML appends a <service> element for e to the writer.
func entryToXML(w *xmltree.Writer, e Entry) {
	w.Open("service",
		"serviceKey", e.Key,
		"name", e.Name,
		"accessPoint", e.AccessPoint,
		"tModel", e.TModel,
	)
	if e.Description != "" {
		w.Leaf("description", e.Description)
	}
	// Deterministic category order for stable wire output.
	keys := make([]string, 0, len(e.Categories))
	for k := range e.Categories {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		w.SelfClose("category", "keyName", k, "keyValue", e.Categories[k])
	}
	if e.WSDL != "" {
		w.Leaf("wsdl", e.WSDL)
	}
	w.Close()
}

// entryFromXML parses a <service> element, taking the strings that
// repeat across entries from the intern table as decodeBinEntry does. A
// save of an entry without a name is refused by serve, whichever wire it
// came over.
func entryFromXML(svc *xmltree.Element) Entry {
	e := Entry{
		Key:         svc.Attr("serviceKey"),
		Name:        svc.Attr("name"),
		AccessPoint: svc.Attr("accessPoint"),
		TModel:      internString(svc.Attr("tModel")),
		Description: svc.ChildText("description"),
	}
	for _, c := range svc.All("category") {
		if e.Categories == nil {
			e.Categories = make(map[string]string)
		}
		e.Categories[internString(c.Attr("keyName"))] = c.Attr("keyValue")
	}
	if wel := svc.Child("wsdl"); wel != nil {
		e.WSDL = internString(wel.Text)
	}
	return e
}

func writeXML(w http.ResponseWriter, data []byte) {
	w.Header().Set("Content-Type", `text/xml; charset="utf-8"`)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// AuthErrorWriter renders an authentication refusal in the registry's
// own dispositionReport vocabulary — the identity.DenyWriter for UDDI
// faces. The UDDI v2 error codes are the closest the spec offers:
// E_authTokenRequired for missing/invalid credentials, E_userMismatch
// for an authenticated party the face refuses.
func AuthErrorWriter(w http.ResponseWriter, code, msg string) {
	switch code {
	case "Forbidden":
		writeError(w, http.StatusForbidden, "E_userMismatch", msg)
	default:
		writeError(w, http.StatusUnauthorized, "E_authTokenRequired", msg)
	}
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	xw := xmltree.NewWriter()
	xw.Open("dispositionReport", "result", "error")
	xw.Leaf("errCode", code)
	xw.Leaf("errInfo", msg)
	w.Header().Set("Content-Type", `text/xml; charset="utf-8"`)
	w.WriteHeader(status)
	_, _ = w.Write(xw.Bytes())
}
