open Anon_kernel

type fate = Live | Crashed | Halted | Away

type op_spec = Do_add of Value.t | Do_get | Do_add_with of (Value.Set.t -> Value.t)

type workload = (int * (int * op_spec) list) list

(* The two cores share the round skeleton: [begin_round] (churn
   transitions, then the crash latch), [compute] (iteration [k] consumes
   arrivals <= k-1 and runs round k-1), [deliver] (Dispatch under the
   plan, crasher marking, ESS stable bookkeeping). They differ only where
   the automata differ — consensus processes halt on decision, services
   run a client-operation phase instead. *)

(* Inbox assembly is owned by the backend seam ({!Backend}): the live
   backend must consume arrivals with byte-identical semantics, so the
   one implementation lives there and both backends call it. Consensus
   processes read only [M_i[k]] ({!Backend.ready_current}); services also
   get the late arrivals ({!Backend.ready_inbox}). *)

module Consensus (A : Intf.ALGORITHM) = struct
  type t = {
    n : int;
    inputs : Value.t array;
    crash : Crash.t;
    churn : Churn.t;
    env : Env.t;
    st : A.state option array;  (* None before initialize / while away *)
    out : A.msg option array;  (* this round's broadcast; None = sends nothing *)
    inflight : (int * int * A.msg) list array;  (* (arrival, sent, msg), undrained *)
    fate : fate array;
    is_crashing : bool array;  (* scratch mirror of crashing_now pids *)
    mutable round : int;  (* 0 before the first begin_round *)
    mutable crashing_now : Crash.event list;  (* latched round-[round] events *)
    mutable outgoing : A.msg Dispatch.outbound list;  (* ascending pid *)
    mutable stable : int option;  (* ESS: the current segment's stable source *)
    correct : int list;
    correct_stayers : int list;
  }

  let create ~inputs ~crash ~churn ~env =
    let n = Array.length inputs in
    let correct = Crash.correct crash in
    {
      n;
      inputs;
      crash;
      churn;
      env;
      st = Array.make n None;
      out = Array.make n None;
      inflight = Array.make n [];
      fate = Array.make n Live;
      is_crashing = Array.make n false;
      round = 0;
      crashing_now = [];
      outgoing = [];
      stable = None;
      correct;
      correct_stayers = List.filter (Churn.is_stayer churn) correct;
    }

  let copy t =
    {
      t with
      st = Array.copy t.st;
      out = Array.copy t.out;
      inflight = Array.copy t.inflight;
      fate = Array.copy t.fate;
      is_crashing = Array.copy t.is_crashing;
    }

  let round t = t.round
  let fate t p = t.fate.(p)
  let state t p = t.st.(p)
  let out t p = t.out.(p)
  let inflight t p = t.inflight.(p)
  let stable t = t.stable
  let crashing_pids t = List.map (fun (ev : Crash.event) -> ev.pid) t.crashing_now
  let mailbox_pending t p = List.length t.inflight.(p)

  let begin_round ?on_leave ?on_rejoin t =
    let k = t.round + 1 in
    t.round <- k;
    (* Churn transitions. Halted processes ignore churn — decisions are
       irrevocable, there is nothing left to leave. A rejoiner restarts
       from scratch: anonymity leaves no identifier under which state or
       mail could have been parked. *)
    List.iter
      (fun (ev : Churn.event) ->
        match t.fate.(ev.pid) with
        | Live ->
          t.fate.(ev.pid) <- Away;
          t.out.(ev.pid) <- None;
          (match on_leave with Some f -> f ~pid:ev.pid | None -> ())
        | Crashed | Halted | Away -> ())
      (Churn.leaving_at t.churn ~round:k);
    List.iter
      (fun (ev : Churn.event) ->
        match t.fate.(ev.pid) with
        | Away | Live ->
          t.fate.(ev.pid) <- Live;
          t.st.(ev.pid) <- None;
          t.inflight.(ev.pid) <- [];
          (match on_rejoin with Some f -> f ~pid:ev.pid | None -> ())
        | Crashed | Halted -> ())
      (Churn.rejoining_at t.churn ~round:k);
    (* Latch the round's crash events against the fates as they stand
       before the compute: a process that already crashed or decided
       cannot crash again. *)
    List.iter (fun (ev : Crash.event) -> t.is_crashing.(ev.pid) <- false) t.crashing_now;
    t.crashing_now <-
      List.filter
        (fun (ev : Crash.event) ->
          match t.fate.(ev.pid) with
          | Live | Away -> true
          | Crashed | Halted -> false)
        (Crash.crashing_at t.crash ~round:k);
    List.iter (fun (ev : Crash.event) -> t.is_crashing.(ev.pid) <- true) t.crashing_now

  let compute ?observe ?on_decide t =
    let k = t.round in
    let rev_out = ref [] in
    for p = 0 to t.n - 1 do
      match t.fate.(p) with
      | Crashed | Halted | Away -> ()
      | Live ->
        (match t.st.(p) with
        | None ->
          (* Round 1 and just after a rejoin: start fresh from the
             original input. *)
          let st, m = A.initialize t.inputs.(p) in
          t.st.(p) <- Some st;
          t.out.(p) <- Some m;
          rev_out := { Dispatch.sender = p; msg = m } :: !rev_out
        | Some st -> (
          let current, rest =
            Backend.ready_current ~compare:A.msg_compare ~round:(k - 1) t.inflight.(p)
          in
          t.inflight.(p) <- rest;
          let st', m, dec = A.compute st ~round:(k - 1) ~inbox:current in
          t.st.(p) <- Some st';
          match dec with
          | None ->
            t.out.(p) <- Some m;
            rev_out := { Dispatch.sender = p; msg = m } :: !rev_out
          | Some v ->
            (* Deciders halt and send nothing. *)
            t.fate.(p) <- Halted;
            t.out.(p) <- None;
            (match on_decide with
            | Some f -> f ~pid:p ~round:(k - 1) ~value:v
            | None -> ())));
        (match (observe, t.st.(p)) with
        | Some f, Some st -> f ~pid:p ~round:(k - 1) st
        | None, _ | _, None -> ())
    done;
    t.outgoing <- List.rev !rev_out;
    t.outgoing

  (* After the compute phase the normal senders, the obligated receivers
     and the alive receivers all coincide: the live processes (every one
     of which broadcast) not crashing this round. Deciders left both sets
     when they halted. *)
  let alive t =
    let acc = ref [] in
    for p = t.n - 1 downto 0 do
      if t.fate.(p) = Live && not t.is_crashing.(p) then acc := p :: !acc
    done;
    !acc

  let ctx t =
    let alive = alive t in
    {
      Adversary.round = t.round;
      senders = alive;
      obligated = alive;
      correct = t.correct;
      alive;
    }

  let deliver ?on_deliver ?on_crash t ~plan ~crash_rng =
    let k = t.round in
    let stats =
      Dispatch.dispatch ~round:k ~outgoing:t.outgoing
        ~crashing_events:t.crashing_now
        ~eligible:(fun q -> q >= 0 && q < t.n && t.fate.(q) = Live)
        ~receivers:(alive t) ~plan ~crash_rng
        ?on_deliver
        ~schedule:(fun ~receiver ~arrival ~sent msg ->
          t.inflight.(receiver) <- (arrival, sent, msg) :: t.inflight.(receiver))
        ()
    in
    List.iter
      (fun (ev : Crash.event) ->
        t.fate.(ev.pid) <- Crashed;
        t.st.(ev.pid) <- None;
        t.out.(ev.pid) <- None;
        t.inflight.(ev.pid) <- [];
        match on_crash with Some f -> f ~pid:ev.pid | None -> ())
      t.crashing_now;
    (match t.env with
    | Env.Ess { gst } when k >= gst -> (
      match plan.Adversary.source with
      | Some _ as src -> t.stable <- src
      | None -> ())
    | Env.Sync | Env.Ms | Env.Es _ | Env.Ess _ | Env.Async | Env.Dynamic _ -> ());
    stats

  let undecided_correct_stayers t =
    List.filter (fun p -> t.fate.(p) <> Halted) t.correct_stayers

  let rec all_halted fate = function
    | [] -> true
    | p :: tl -> fate.(p) = Halted && all_halted fate tl

  let correct_stayers_decided t = all_halted t.fate t.correct_stayers
end

module Service (S : Intf.SERVICE) = struct
  type t = {
    n : int;
    crash : Crash.t;
    churn : Churn.t;
    env : Env.t;
    st : S.state option array;
    out : S.msg option array;
    inflight : (int * int * S.msg) list array;
    fate : fate array;  (* services never halt: Live / Crashed / Away *)
    version : int array;
    is_crashing : bool array;
    script : (int * op_spec) list array;
    blocked : (Value.t * int) option array;  (* pending add: value, invoked round *)
    mutable round : int;
    mutable crashing_now : Crash.event list;
    mutable outgoing : S.msg Dispatch.outbound list;
    correct : int list;
  }

  let create ~n ~crash ~churn ~env ~workload =
    {
      n;
      crash;
      churn;
      env;
      st = Array.make n None;
      out = Array.make n None;
      inflight = Array.make n [];
      fate = Array.make n Live;
      version = Array.make n 0;
      is_crashing = Array.make n false;
      script =
        Array.init n (fun p -> Option.value ~default:[] (List.assoc_opt p workload));
      blocked = Array.make n None;
      round = 0;
      crashing_now = [];
      outgoing = [];
      correct = Crash.correct crash;
    }

  let copy t =
    {
      t with
      st = Array.copy t.st;
      out = Array.copy t.out;
      inflight = Array.copy t.inflight;
      fate = Array.copy t.fate;
      version = Array.copy t.version;
      is_crashing = Array.copy t.is_crashing;
      script = Array.copy t.script;
      blocked = Array.copy t.blocked;
    }

  let round t = t.round
  let fate t p = t.fate.(p)
  let state t p = t.st.(p)
  let out t p = t.out.(p)
  let inflight t p = t.inflight.(p)
  let version t p = t.version.(p)
  let script t p = t.script.(p)
  let blocked t p = t.blocked.(p)
  let crashing_pids t = List.map (fun (ev : Crash.event) -> ev.pid) t.crashing_now
  let mailbox_pending t p = List.length t.inflight.(p)
  let bump t p = t.version.(p) <- t.version.(p) + 1

  let begin_round ?on_leave ?on_rejoin t =
    let k = t.round + 1 in
    t.round <- k;
    (* A leaver's pending add is surfaced to the shell (recorded
       incomplete — the value may or may not have propagated; the weak-set
       axioms only bind completed adds). A rejoiner restarts with a fresh
       replica and an empty mailbox, its remaining client script intact. *)
    List.iter
      (fun (ev : Churn.event) ->
        match t.fate.(ev.pid) with
        | Live ->
          let pending = t.blocked.(ev.pid) in
          t.fate.(ev.pid) <- Away;
          t.out.(ev.pid) <- None;
          t.blocked.(ev.pid) <- None;
          bump t ev.pid;
          (match on_leave with Some f -> f ~pid:ev.pid ~pending | None -> ())
        | Crashed | Halted | Away -> ())
      (Churn.leaving_at t.churn ~round:k);
    List.iter
      (fun (ev : Churn.event) ->
        match t.fate.(ev.pid) with
        | Away | Live ->
          t.fate.(ev.pid) <- Live;
          t.st.(ev.pid) <- None;
          t.inflight.(ev.pid) <- [];
          bump t ev.pid;
          (match on_rejoin with Some f -> f ~pid:ev.pid | None -> ())
        | Crashed | Halted -> ())
      (Churn.rejoining_at t.churn ~round:k);
    List.iter (fun (ev : Crash.event) -> t.is_crashing.(ev.pid) <- false) t.crashing_now;
    t.crashing_now <-
      List.filter
        (fun (ev : Crash.event) ->
          match t.fate.(ev.pid) with
          | Live | Away | Halted -> true
          | Crashed -> false)
        (Crash.crashing_at t.crash ~round:k);
    List.iter (fun (ev : Crash.event) -> t.is_crashing.(ev.pid) <- true) t.crashing_now

  let compute ?observe ?on_add_complete t =
    let k = t.round in
    let rev_out = ref [] in
    for p = 0 to t.n - 1 do
      match t.fate.(p) with
      | Crashed | Halted | Away -> ()
      | Live ->
        bump t p;
        (match t.st.(p) with
        | None ->
          let st, m = S.initialize () in
          t.st.(p) <- Some st;
          t.out.(p) <- Some m;
          rev_out := { Dispatch.sender = p; msg = m } :: !rev_out
        | Some st ->
          let current, fresh, rest =
            Backend.ready_inbox ~compare:S.msg_compare ~round:(k - 1) t.inflight.(p)
          in
          t.inflight.(p) <- rest;
          let st', m = S.compute st ~round:(k - 1) ~inbox:{ Intf.current; fresh } in
          t.st.(p) <- Some st';
          t.out.(p) <- Some m;
          (* A pending add completes the moment BLOCK clears. *)
          (match t.blocked.(p) with
          | Some (v, invoked_round) when not (S.add_pending st') ->
            t.blocked.(p) <- None;
            (match on_add_complete with
            | Some f -> f ~pid:p ~value:v ~invoked_round
            | None -> ())
          | Some _ | None -> ());
          rev_out := { Dispatch.sender = p; msg = m } :: !rev_out);
        (match (observe, t.st.(p)) with
        | Some f, Some st -> f ~pid:p ~round:(k - 1) st
        | None, _ | _, None -> ())
    done;
    t.outgoing <- List.rev !rev_out;
    t.outgoing

  let alive t =
    let acc = ref [] in
    for p = t.n - 1 downto 0 do
      if t.fate.(p) = Live && not t.is_crashing.(p) then acc := p :: !acc
    done;
    !acc

  let ctx t =
    let alive = alive t in
    {
      Adversary.round = t.round;
      senders = alive;
      obligated = alive;
      correct = t.correct;
      alive;
    }

  let deliver ?on_deliver ?on_crash t ~plan ~crash_rng =
    let stats =
      Dispatch.dispatch ~round:t.round ~outgoing:t.outgoing
        ~crashing_events:t.crashing_now
        ~eligible:(fun q -> q >= 0 && q < t.n && t.fate.(q) = Live)
        ~receivers:(alive t) ~plan ~crash_rng
        ?on_deliver
        ~schedule:(fun ~receiver ~arrival ~sent msg ->
          t.inflight.(receiver) <- (arrival, sent, msg) :: t.inflight.(receiver);
          bump t receiver)
        ()
    in
    List.iter
      (fun (ev : Crash.event) ->
        t.fate.(ev.pid) <- Crashed;
        t.st.(ev.pid) <- None;
        t.out.(ev.pid) <- None;
        t.inflight.(ev.pid) <- [];
        bump t ev.pid;
        match on_crash with Some f -> f ~pid:ev.pid | None -> ())
      t.crashing_now;
    stats

  (* The round-[round] client-operation phase: one operation per unblocked
     live client, in pid order, reading the post-compute state. *)
  let ops ?on_get ?on_add t =
    let k = t.round in
    for p = 0 to t.n - 1 do
      if t.fate.(p) = Live && t.blocked.(p) = None then
        match t.script.(p) with
        | (start, op) :: rest when start <= k -> (
          match t.st.(p) with
          | None -> ()
          | Some st -> (
            match op with
            | Do_get ->
              let result = S.get st in
              t.script.(p) <- rest;
              bump t p;
              (match on_get with Some f -> f ~pid:p ~result | None -> ())
            | Do_add v ->
              t.st.(p) <- Some (S.add st v);
              t.script.(p) <- rest;
              t.blocked.(p) <- Some (v, k);
              bump t p;
              (match on_add with Some f -> f ~pid:p ~value:v | None -> ())
            | Do_add_with f ->
              let v = f (S.get st) in
              t.st.(p) <- Some (S.add st v);
              t.script.(p) <- rest;
              t.blocked.(p) <- Some (v, k);
              bump t p;
              (match on_add with Some g -> g ~pid:p ~value:v | None -> ())))
        | _ -> ()
    done
end
