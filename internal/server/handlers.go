package server

// The /v1 endpoint implementations. Handlers return errors; the v1 wrapper
// owns the envelope. Anything written directly to w is a success response.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"sentinel/internal/asm"
	"sentinel/internal/core"
	"sentinel/internal/eval"
	"sentinel/internal/machine"
	"sentinel/internal/obs"
	"sentinel/internal/prog"
	"sentinel/internal/sim"
	"sentinel/internal/superblock"
	"sentinel/internal/workload"
)

// KindProgramError classifies a program that assembles but cannot be
// compiled or reference-executed (e.g. traps deterministically in the
// sequential interpreter).
const KindProgramError = "program_error"

// ipc guards the instructions-per-cycle division: a zero-cycle result must
// not put NaN into the response, which json.Encode would reject.
func ipc(instrs, cycles int64) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(instrs) / float64(cycles)
}

// MaxBodyBytes bounds request bodies — shared by the decode path and the
// v1 wrapper's raw-fingerprint slurp so both refuse at the same size. The
// fleet router buffers bodies up to the same bound: what it holds whole is
// exactly what a backend can accept.
const MaxBodyBytes = 4 << 20

// decodeRequest decodes a JSON request body into req (zero on entry) under
// the decode stage. A body the server already holds (heldBytes) is decoded
// in place, a schedule or simulate body through the request codec; any
// other body streams through the size limit into encoding/json's strict
// Decoder. Every path reaches encoding/json's verdict and error text.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request, req any) error {
	var t0 time.Time
	if s.decodeTime != nil {
		t0 = time.Now()
	}
	rd := obs.RecordFrom(r.Context())
	rd.Start(obs.StageDecode, obs.ArgNone)
	var err error
	if b, ok := heldBytes(r); ok {
		switch q := req.(type) {
		case *ScheduleRequest:
			_, err = DecodeScheduleRequest(b, q)
		case *SimulateRequest:
			_, err = DecodeSimulateRequest(b, q)
		default:
			_, err = decodeJSON(b, req)
		}
	} else {
		r.Body = http.MaxBytesReader(w, r.Body, MaxBodyBytes)
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		err = dec.Decode(req)
	}
	rd.End()
	if s.decodeTime != nil {
		s.decodeTime.Observe(time.Since(t0).Nanoseconds())
	}
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return apiErrorf(http.StatusRequestEntityTooLarge, KindTooLarge, "invalid request body: %v", err)
	case err != nil:
		return apiErrorf(http.StatusBadRequest, KindBadRequest, "invalid request body: %v", err)
	}
	return nil
}

// parseMachine normalizes the request's machine triple through the shared
// machine.Resolve — the same resolution the fleet router applies before
// fingerprinting, so a request can never hash one way at the router and
// key another way here.
func parseMachine(model string, width int, predictor string) (machine.Desc, error) {
	md, err := machine.Resolve(model, width, predictor)
	if err != nil {
		return machine.Desc{}, apiErrorf(http.StatusBadRequest, KindBadRequest, "%v", err)
	}
	return md, nil
}

// respPredictor is the response echo of the resolved frontend: empty under
// the default perfect predictor so classic response bytes are unchanged.
func respPredictor(md machine.Desc) string {
	if md.Predictor == machine.PredPerfect {
		return ""
	}
	return md.Predictor.String()
}

// prepared resolves a ProgramSpec into compile artifacts: workload kernels
// through the Runner's caches, inline source through the content-hash
// cache, keyed by sum, the source's sourceSum. Only a simulation needs an
// inline source's memory image and simulator index, so a schedule
// (simulate false) gets neither.
func (s *Server) prepared(r *http.Request, spec ProgramSpec, sum *respKey, md machine.Desc, form, simulate bool) (eval.Prepared, error) {
	ctx := r.Context()
	switch {
	case spec.Workload != "" && spec.Source != "":
		return eval.Prepared{}, apiErrorf(http.StatusBadRequest, KindBadRequest,
			"workload and source are mutually exclusive")
	case spec.Workload != "":
		if !form {
			return eval.Prepared{}, apiErrorf(http.StatusBadRequest, KindBadRequest,
				"superblock=false requires an inline source program; workload cells always use the paper pipeline")
		}
		b, ok := workload.ByName(spec.Workload)
		if !ok {
			return eval.Prepared{}, apiErrorf(http.StatusNotFound, KindUnknownWorkload,
				"unknown workload %q", spec.Workload)
		}
		return s.runner.PreparedCtx(ctx, b, md, superblock.Options{})
	case spec.Source != "":
		// Compile artifacts are frontend-independent (the scheduler never
		// consults the predictor), so the source cache keys by the compile
		// view and shares one entry across predictors.
		cmd := md.CompileView()
		key := sourceKey{sum: *sum, md: cmd, form: form}
		c, err := s.sources.Get(ctx, key, func() (*compiled, error) {
			return compileSource(ctx, spec.Source, cmd, form)
		})
		if err != nil {
			return eval.Prepared{}, err
		}
		if !simulate {
			return eval.Prepared{Prog: c.prog, Stats: c.stats, Ref: c.ref}, nil
		}
		return eval.Prepared{Prog: c.prog, Index: c.progIndex(), Stats: c.stats,
			Ref: c.ref, Mem: c.mem.Clone()}, nil
	default:
		return eval.Prepared{}, apiErrorf(http.StatusBadRequest, KindBadRequest,
			"one of workload or source is required")
	}
}

// compileSource runs the full compile pipeline on inline assembly: parse,
// then eval.Front (lay out, reference-interpret for the profile, optionally
// form superblocks) on the program the compile owns, then schedule it for
// md in place. Each Front stage maps to its 422 envelope. The ctx is span
// plumbing only — the request record, when one is attached, gets compile
// and schedule stages.
func compileSource(ctx context.Context, src string, md machine.Desc, form bool) (*compiled, error) {
	rd := obs.RecordFrom(ctx)
	rd.Start(obs.StageCompile, obs.ArgSources)
	if h := compileHook.Load(); h != nil {
		if err := (*h)(ctx, src); err != nil {
			rd.End()
			return nil, err
		}
	}
	p, m, err := asm.Parse(src)
	if err != nil {
		rd.End()
		return nil, apiErrorf(http.StatusUnprocessableEntity, KindAssemblyError, "%v", err)
	}
	p, ref, err := eval.Front(p, m, eval.FrontOptions{Form: form, Reference: true})
	rd.End()
	if err != nil {
		return nil, frontAPIError(err)
	}
	rd.Start(obs.StageSchedule, obs.ArgNone)
	sched, stats, err := core.ScheduleOwned(p, md)
	rd.End()
	if err != nil {
		return nil, apiErrorf(http.StatusUnprocessableEntity, KindProgramError,
			"schedule: %v", err)
	}
	// The cache keeps only what verification reads of the reference run,
	// not its memory image or profile.
	return &compiled{prog: sched, stats: stats, mem: m,
		ref: &prog.Result{Out: ref.Out, MemSum: ref.MemSum, Instrs: ref.Instrs}}, nil
}

// compileHook, when set, runs first in every inline-source compile, inside
// the source cache's singleflight. Tests hold an element there (to order a
// stream or outlast a deadline), fail it, or panic in it (to reach panic
// containment and the singleflight's release). Nothing else sets it.
var compileHook atomic.Pointer[func(ctx context.Context, src string) error]

// SetCompileHook makes fn the compile hook until the returned function
// restores the previous one. For tests, including other packages' tests
// that drive a real backend.
func SetCompileHook(fn func(ctx context.Context, src string) error) (restore func()) {
	prev := compileHook.Swap(&fn)
	return func() { compileHook.Store(prev) }
}

// frontAPIError maps a failed eval.Front stage onto its 422 envelope. A
// program that fails validation never assembled.
func frontAPIError(err error) *APIError {
	var se *eval.StageError
	if errors.As(err, &se) {
		switch se.Stage {
		case eval.StageReference:
			return apiErrorf(http.StatusUnprocessableEntity, KindProgramError,
				"reference interpretation failed: %v", err)
		case eval.StageFormation:
			return apiErrorf(http.StatusUnprocessableEntity, KindProgramError,
				"superblock formation: %v", err)
		}
	}
	return apiErrorf(http.StatusUnprocessableEntity, KindAssemblyError, "%v", err)
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) error {
	req := getSchedReq()
	defer putSchedReq(req)
	if err := s.decodeRequest(w, r, req); err != nil {
		return err
	}
	md, err := parseMachine(req.Model, req.Width, req.Predictor)
	if err != nil {
		return err
	}
	form := req.Superblock == nil || *req.Superblock

	// Schedules are a pure function of (program, machine, formation): every
	// repeat is served straight from the response-byte cache.
	sum := sourceSum(&req.ProgramSpec)
	key := scheduleKey(req, sum, md, form)
	rd := obs.RecordFrom(r.Context())
	rd.SetFingerprint(key[:])
	rd.SetPredictor(md.Predictor.String())
	rd.Start(obs.StageRespCache, obs.ArgCanon)
	hit := s.resp.Serve(w, key)
	rd.End()
	if hit {
		rd.SetTier(tierCanon)
		return nil
	}
	rd.SetTier(tierFull)

	p, err := s.prepared(r, req.ProgramSpec, sum, md, form, false)
	if err != nil {
		return err
	}
	instrs := 0
	for _, b := range p.Prog.Blocks {
		instrs += len(b.Instrs)
	}
	resp := ScheduleResponse{
		Model:     md.Model.String(),
		Width:     md.IssueWidth,
		Predictor: respPredictor(md),
		Blocks:    len(p.Prog.Blocks),
		Instrs:    instrs,
		Stats:     p.Stats,
	}
	// The listing is appended from the program into scratch behind the
	// response head, then escaped once into a body allocated at its exact
	// size: the body the cache keeps and the client gets.
	rd.Start(obs.StageEncode, obs.ArgNone)
	fb := getFrameBuf()
	fb.b = appendScheduleHead(fb.b[:0], &resp)
	head := len(fb.b)
	fb.b = asm.AppendScheduled(fb.b, p.Prog)
	listing := fb.b[head:]
	body := make([]byte, 0, head+jsonStringLen(listing)+len(scheduleTail))
	body = append(body, fb.b[:head]...)
	body = appendJSONString(body, listing)
	body = append(body, scheduleTail...)
	putFrameBuf(fb)
	s.writeBody(w, r, key, true, body)
	rd.End()
	return nil
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) error {
	req := getSimReq()
	defer putSimReq(req)
	if err := s.decodeRequest(w, r, req); err != nil {
		return err
	}
	md, err := parseMachine(req.Model, req.Width, req.Predictor)
	if err != nil {
		return err
	}

	// A simulate response is a pure function of the normalized request
	// unless the run is perturbed (fault injection) or explicitly forced
	// (Full, the documented escape hatch past every cache): those two
	// bypass the response-byte cache entirely.
	rd := obs.RecordFrom(r.Context())
	rd.SetPredictor(md.Predictor.String())
	rd.SetTier(tierFull)
	cacheable := req.FaultSegment == "" && !req.Full
	sum := sourceSum(&req.ProgramSpec)
	var key respKey
	if cacheable {
		key = simulateKey(req, sum, md)
		rd.SetFingerprint(key[:])
		rd.Start(obs.StageRespCache, obs.ArgCanon)
		hit := s.resp.Serve(w, key)
		rd.End()
		if hit {
			rd.SetTier(tierCanon)
			return nil
		}
	}

	// Fast path: a plain workload cell is served from the Runner's verified
	// cell cache — identical concurrent requests coalesce onto one
	// simulation, repeats never simulate at all.
	if req.Workload != "" && req.Source == "" && req.FaultSegment == "" && !req.Full {
		b, ok := workload.ByName(req.Workload)
		if !ok {
			return apiErrorf(http.StatusNotFound, KindUnknownWorkload,
				"unknown workload %q", req.Workload)
		}
		cell, err := s.runner.MeasureCtx(r.Context(), b, md, superblock.Options{})
		if err != nil {
			return err
		}
		rd.SetTier(tierCell)
		s.writeSimulate(w, r, key, true, &SimulateResponse{
			Model:     md.Model.String(),
			Width:     md.IssueWidth,
			Predictor: respPredictor(md),
			Cycles:    cell.Cycles,
			Instrs:    cell.Instrs,
			IPC:       ipc(cell.Instrs, cell.Cycles),
			Stalls:    cell.Sim.Stalls(),
			Stats:     cell.Sim,
		})
		return nil
	}

	// Full path: a per-request simulation over cached compile artifacts —
	// inline source, fault injection, or an explicit Full run that needs
	// the program output and memory checksum.
	p, err := s.prepared(r, req.ProgramSpec, sum, md, true, true)
	if err != nil {
		return err
	}
	if req.FaultSegment != "" {
		seg := p.Mem.Segment(req.FaultSegment)
		if seg == nil {
			return apiErrorf(http.StatusBadRequest, KindUnknownSegment,
				"program has no segment %q", req.FaultSegment)
		}
		seg.Present = false
	}
	rd.Start(obs.StageSimulate, obs.ArgNone)
	res, err := sim.Run(p.Prog, md, p.Mem, sim.Options{Index: p.Index})
	rd.End()
	if err != nil {
		if exc, ok := sim.Unhandled(err); ok {
			pc := exc.ReportedPC
			return &APIError{
				Status:  http.StatusUnprocessableEntity,
				Kind:    KindSentinelException,
				Message: fmt.Sprintf("unhandled exception: %v", exc),
				PC:      &pc,
				ExcKind: exc.Kind.String(),
			}
		}
		return err
	}
	if req.FaultSegment == "" {
		// Verification only makes sense against an unfaulted image.
		if res.MemSum != p.Ref.MemSum || !slices.Equal(res.Out, p.Ref.Out) {
			return apiErrorf(http.StatusInternalServerError, KindInternal,
				"verification failed: simulated result diverges from the reference interpreter")
		}
	}
	s.writeSimulate(w, r, key, cacheable, &SimulateResponse{
		Model:      md.Model.String(),
		Width:      md.IssueWidth,
		Predictor:  respPredictor(md),
		Cycles:     res.Cycles,
		Instrs:     res.Instrs,
		IPC:        ipc(res.Instrs, res.Cycles),
		Stalls:     res.Stalls,
		Stats:      res.Stats,
		Out:        res.Out,
		MemSum:     strconv.FormatUint(res.MemSum, 10),
		Exceptions: len(res.Exceptions),
	})
	return nil
}

func (s *Server) handleFigures(w http.ResponseWriter, r *http.Request) error {
	// URL.Query would drop a pair it cannot parse and render the sections
	// that survived; a malformed query is refused instead.
	q, err := url.ParseQuery(r.URL.RawQuery)
	if err != nil {
		return apiErrorf(http.StatusBadRequest, KindBadRequest, "invalid query: %v", err)
	}
	secs, unknown, ok := eval.SectionsByName(q["section"])
	if !ok {
		return apiErrorf(http.StatusBadRequest, KindBadRequest,
			"unknown section %q (want fig4, fig5, table3, overhead, recovery, buffer, faults, sharing, boosting, prediction, all)", unknown)
	}
	// A figure render is deterministic per section set; repeats come from
	// the response-byte cache without touching the Runner.
	const figuresContentType = "text/plain; charset=utf-8"
	key := FiguresKey(secs)
	rd := obs.RecordFrom(r.Context())
	rd.SetFingerprint(key[:])
	rd.Start(obs.StageRespCache, obs.ArgCanon)
	hit := s.resp.Serve(w, key)
	rd.End()
	if hit {
		rd.SetTier(tierCanon)
		return nil
	}
	rd.SetTier(tierFull)
	// Render into memory first: an error after bytes hit the wire could not
	// change the status line anymore. The render fans out across the
	// Runner's workers, so its pipeline stages land outside this record
	// (the record is single-goroutine; see parallelForCtx).
	rd.Start(obs.StageSimulate, obs.ArgNone)
	var buf bytes.Buffer
	err = eval.RenderSections(r.Context(), secs, s.runner, &buf)
	rd.End()
	if err != nil {
		return err
	}
	rd.Start(obs.StageEncode, obs.ArgNone)
	body := append([]byte(nil), buf.Bytes()...)
	s.resp.Put(key, body, figuresContentType)
	if rk, ok := rawKeyFrom(r.Context()); ok {
		s.resp.Put(rk, body, figuresContentType)
	}
	w.Header().Set("Content-Type", figuresContentType)
	w.Write(buf.Bytes()) //nolint:errcheck
	rd.End()
	return nil
}
