module Metrics = Wl_obs.Metrics
module Trace = Wl_obs.Trace
module Clock = Wl_obs.Clock

let default_domains () = min 8 (Domain.recommended_domain_count ())

(* Observability: one map-level counter set (items, chunks, sequential
   fallbacks, clamps, spawned workers), so a sweep's metrics show whether
   it went parallel at all. *)
let m_maps = Metrics.counter "parallel.maps"
let m_items = Metrics.counter "parallel.items"
let m_chunks = Metrics.counter "parallel.chunks"
let m_seq_fallbacks = Metrics.counter "parallel.seq_fallbacks"
let m_domains_clamped = Metrics.counter "parallel.domains_clamped"
let m_workers = Metrics.counter "parallel.workers_spawned"

(* Below this projected total runtime, spawning extra domains costs more
   than it buys: each spawn is ~100µs+ of setup, and every minor GC then
   needs a stop-the-world handshake across all running domains — ruinous
   when cores are scarce.  2 ms is several times the worst combined
   overhead we have measured, and workloads that small finish instantly
   either way. *)
let seq_threshold_ns = 2_000_000

(* Dynamic chunking: domains claim fixed-size index blocks off a shared
   atomic counter, so an unlucky domain stuck on slow items no longer
   serializes the whole map (the old static split did).  Each claimed block
   is computed into a private buffer — no domain ever writes into memory
   another domain touches, which also kills the false sharing (and the
   per-element boxing) of the old ['a option array] scheme.  Results are
   blitted into the output by index after the join, so the outcome is
   deterministic and identical for any domain count.

   Two guards keep small workloads fast: the requested domain count is
   clamped to [Domain.recommended_domain_count] (domains beyond the core
   count only add GC-barrier contention — the measured cause of the
   2-domains-slower-than-1 sweep regression), and the first block is timed
   on the calling domain before any spawn, falling back to a fully
   sequential map when the whole workload projects under
   {!seq_threshold_ns}. *)
let init ?domains n f =
  let requested = match domains with Some d -> d | None -> default_domains () in
  let d = min requested (Domain.recommended_domain_count ()) in
  if d < requested then Metrics.incr m_domains_clamped;
  Metrics.incr m_maps;
  Metrics.add m_items n;
  if d <= 1 || n <= 1 then begin
    if requested > 1 && n > 1 then Metrics.incr m_seq_fallbacks;
    Array.init n f
  end
  else begin
    let d = min d n in
    let block = max 1 (n / (d * 8)) in
    (* Probe: run the first block sequentially and project the total. *)
    let t0 = Clock.now_ns () in
    let probe_len = min block n in
    let probe = Array.init probe_len f in
    let elapsed = Clock.now_ns () - t0 in
    let estimate = elapsed * n / probe_len in
    if estimate < seq_threshold_ns then begin
      Metrics.incr m_seq_fallbacks;
      Metrics.incr m_chunks;
      Array.init n (fun i -> if i < probe_len then probe.(i) else f i)
    end
    else begin
      let next = Atomic.make probe_len in
      let worker () =
        let chunks = ref 0 in
        let rec claim acc =
          let lo = Atomic.fetch_and_add next block in
          if lo >= n then acc
          else begin
            incr chunks;
            let len = min block (n - lo) in
            let buf = Array.init len (fun i -> f (lo + i)) in
            claim ((lo, buf) :: acc)
          end
        in
        let acc = claim [] in
        Metrics.add m_chunks !chunks;
        acc
      in
      let traced_worker () =
        if Trace.enabled () then Trace.with_span "parallel.worker" worker
        else worker ()
      in
      Metrics.add m_workers (d - 1);
      let handles = List.init (d - 1) (fun _ -> Domain.spawn traced_worker) in
      let mine = try Ok (worker ()) with e -> Error e in
      let rest =
        List.map (fun h -> try Ok (Domain.join h) with e -> Error e) handles
      in
      let chunks =
        List.concat_map
          (function Ok c -> c | Error e -> raise e)
          (mine :: rest)
      in
      let out = Array.make n probe.(0) in
      Array.blit probe 0 out 0 probe_len;
      List.iter
        (fun (lo, buf) -> Array.blit buf 0 out lo (Array.length buf))
        chunks;
      out
    end
  end

let init ?domains n f =
  if Trace.enabled () then
    Trace.with_span ~args:[ ("items", Trace.Int n) ] "parallel.map" (fun () -> init ?domains n f)
  else init ?domains n f
