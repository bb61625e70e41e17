type result = {
  batch : int;
  queries : int;
  wall_s : float;
  qps : float;
  rtt_p50_us : float option;
  rtt_p99_us : float option;
  minor_words_per_query : float;
}

let socket_counter = Atomic.make 0

let fresh_socket_path () =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "bdrmap-serve-%d-%d.sock" (Unix.getpid ())
       (Atomic.fetch_and_add socket_counter 1))

(* Quantile in seconds from a local bucket population using the shared
   Metrics layout, under Summary's refusals: [None] when the window
   holds too few frames to support it or it is below resolution. *)
let quantile buckets count q =
  let pairs = ref [] in
  Array.iteri
    (fun i n -> if n > 0 then pairs := (Obs.Metrics.bucket_lower i, n) :: !pairs)
    buckets;
  Obs.Summary.percentile_of_buckets ~count (List.rev !pairs) q

let run ?(batch = 512) ?(seconds = 0.5) ?(warmup_frames = 64) qmap =
  let path = fresh_socket_path () in
  let server = Server.create ~path qmap in
  let domain = Domain.spawn (fun () -> Server.run server) in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Domain.join domain)
    (fun () ->
      let client =
        match Client.connect path with
        | Ok c -> c
        | Error e -> failwith ("serve-bench: connect: " ^ Protocol.error_label e)
      in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          let sample = Qmap.sample_addrs qmap in
          if Array.length sample = 0 then failwith "serve-bench: empty query map";
          (* The query mix cycles through every answerable address, so
             batches hit border /32s and origin prefixes alike. *)
          let addrs = Array.make batch 0 in
          let out = Array.make batch 0 in
          let cursor = ref 0 in
          let fill () =
            for i = 0 to batch - 1 do
              addrs.(i) <- Netcore.Ipv4.to_int sample.(!cursor);
              cursor := !cursor + 1;
              if !cursor = Array.length sample then cursor := 0
            done
          in
          let shoot () =
            match Client.owner_batch_into client ~addrs ~n:batch ~out with
            | Ok () -> ()
            | Error e -> failwith ("serve-bench: query: " ^ Protocol.error_label e)
          in
          for _ = 1 to warmup_frames do
            fill ();
            shoot ()
          done;
          let gc0 =
            match Client.gc_stat client with
            | Ok g -> g
            | Error e -> failwith ("serve-bench: gcstat: " ^ Protocol.error_label e)
          in
          let rtt_buckets = Array.make 64 0 in
          let frames = ref 0 in
          let t_start = Obs.Clock.now_ns () in
          let deadline = t_start + int_of_float (seconds *. 1e9) in
          let t_end = ref t_start in
          while !t_end < deadline do
            fill ();
            let t0 = Obs.Clock.now_ns () in
            shoot ();
            let t1 = Obs.Clock.now_ns () in
            let b = Obs.Metrics.bucket_of (float_of_int (t1 - t0) *. 1e-9) in
            rtt_buckets.(b) <- rtt_buckets.(b) + 1;
            incr frames;
            t_end := t1
          done;
          let gc1 =
            match Client.gc_stat client with
            | Ok g -> g
            | Error e -> failwith ("serve-bench: gcstat: " ^ Protocol.error_label e)
          in
          let wall_s = float_of_int (!t_end - t_start) *. 1e-9 in
          let queries = !frames * batch in
          let dq = gc1.Client.queries_total - gc0.Client.queries_total in
          let dw = gc1.Client.minor_words - gc0.Client.minor_words in
          { batch;
            queries;
            wall_s;
            qps = (if wall_s > 0.0 then float_of_int queries /. wall_s else 0.0);
            rtt_p50_us = Option.map (( *. ) 1e6) (quantile rtt_buckets !frames 0.50);
            rtt_p99_us = Option.map (( *. ) 1e6) (quantile rtt_buckets !frames 0.99);
            minor_words_per_query =
              (if dq > 0 then float_of_int dw /. float_of_int dq else 0.0) }))

let print ppf r =
  let us = function Some v -> Printf.sprintf "%.1fus" v | None -> "n/a" in
  Format.fprintf ppf
    "batch %4d: %9.0f qps (%d queries in %.3fs), rtt p50 %s p99 %s, \
     %.3f minor words/query@."
    r.batch r.qps r.queries r.wall_s (us r.rtt_p50_us) (us r.rtt_p99_us)
    r.minor_words_per_query
