let effective_jobs jobs =
  (* Never run more domains than the hardware can: every OCaml 5
     domain must join every stop-the-world minor collection, so an
     oversubscribed domain that is descheduled by the OS stalls all
     the others at each GC sync — requesting jobs=4 on a smaller
     machine makes the campaign slower than jobs=1, not merely
     no faster. *)
  Int.max 1 (Int.min jobs (Domain.recommended_domain_count ()))

(* Spawning helper domains costs ~100µs each plus a GC-sync tax for
   the rest of their lifetime; a loop the calling domain finishes
   within this much wall clock is faster alone. *)
let sequential_cutoff_ns = 5e6

let for_ ?(jobs = 1) n f =
  let jobs = Int.min (effective_jobs jobs) n in
  if jobs <= 1 then
    for i = 0 to n - 1 do
      f i
    done
  else begin
    (* Inline phase: the calling domain runs indices in order until the
       cutoff has elapsed; a raise here propagates before any spawn. *)
    let deadline = Obs.Metrics.now () +. (sequential_cutoff_ns *. 1e-9) in
    let next = ref 0 in
    while !next < n && Obs.Metrics.now () < deadline do
      f !next;
      incr next
    done;
    if !next < n then begin
      (* Self-scheduling over one shared cursor: every worker (slot 0
         is the calling domain) claims the next index until the range
         is spent. Each worker traps its own exception so the join
         below always runs — a raise must never leak helper domains
         that are still writing into shared buffers — and moves the
         cursor to the end so the others stop claiming. *)
      let cursor = Atomic.make !next in
      let failures = Array.make jobs None in
      let worker k () =
        let t_busy = if Obs.Metrics.enabled () then Obs.Metrics.now () else 0.0 in
        (try
           Obs.Trace.span "parallel.worker" (fun () ->
               let rec loop () =
                 let i = Atomic.fetch_and_add cursor 1 in
                 if i < n then begin
                   f i;
                   loop ()
                 end
               in
               loop ())
         with e ->
           failures.(k) <- Some (e, Printexc.get_raw_backtrace ());
           Atomic.set cursor n);
        if Obs.Metrics.enabled () then
          Obs.Metrics.observe "parallel.worker_busy_s" (Obs.Metrics.now () -. t_busy)
      in
      let helpers =
        List.init (jobs - 1) (fun k -> Domain.spawn (worker (k + 1)))
      in
      worker 0 ();
      List.iter Domain.join helpers;
      (* Deterministic choice among racing failures: the lowest worker
         index that recorded one. *)
      Array.iter
        (function
          | Some (e, bt) -> Printexc.raise_with_backtrace e bt
          | None -> ())
        failures
    end
  end

let map ?jobs n f =
  if n <= 0 then [||]
  else begin
    let results = Array.make n None in
    for_ ?jobs n (fun i -> results.(i) <- Some (f i));
    Array.map
      (function Some v -> v | None -> assert false (* for_ covers 0..n-1 *))
      results
  end
