module Value = Memory.Value

type prim =
  | Done of Value.t
  | Step of string * Value.t * (Value.t -> prim)

type 'a t = ('a -> prim) -> prim

let return x k = k x
let bind m f k = m (fun a -> f a k)
let map f m k = m (fun a -> k (f a))
let ( let* ) = bind
let ( let+ ) m f = map f m
let op loc o k = Step (loc, o, k)
let decide v _k = Done v

let rec list_iter f = function
  | [] -> return ()
  | x :: xs ->
    let* () = f x in
    list_iter f xs

let rec list_map f = function
  | [] -> return []
  | x :: xs ->
    let* y = f x in
    let* ys = list_map f xs in
    return (y :: ys)

let rec list_fold f acc = function
  | [] -> return acc
  | x :: xs ->
    let* acc = f acc x in
    list_fold f acc xs

let rec repeat_until body =
  let* r = body () in
  match r with Some x -> return x | None -> repeat_until body

let complete m = m (fun v -> Done v)

let fault_message = function
  | (Out_of_memory | Stack_overflow) as e -> raise e
  | Value.Type_error (want, got) ->
    Printf.sprintf "type error: expected %s, got %s" want (Value.to_string got)
  | e -> "continuation raised " ^ Printexc.to_string e

(* ------------------------------------------------------------------ *)
(* Compiled representation: a flat instruction array.                  *)
(*                                                                     *)
(* [prim] programs are closures, so the engine allocates one           *)
(* continuation application per step.  But the purity requirement (see *)
(* the .mli header) makes [(instruction, response) -> next instruction]*)
(* a deterministic function, so a program can be lowered once into a   *)
(* growing array of instructions whose op nodes carry branch tables    *)
(* keyed by decoded response.  Lowering is demand-driven: the first    *)
(* traversal of an edge calls the stored continuation and interns the  *)
(* resulting instruction; every later traversal is a table hit that    *)
(* allocates nothing.  A program whose reachable instruction set       *)
(* exceeds [max_nodes] (an unbounded local loop, data-dependent        *)
(* blow-up) stops interning and falls back transparently to the        *)
(* closure interpreter via [O_inline]; [report] says which path the    *)
(* process took.                                                       *)

module Compiled = struct
  module Vtbl = Hashtbl.Make (struct
    type t = Value.t

    let equal = Value.equal
    let hash = Value.hash
  end)

  type inst =
    | I_done of Value.t
    | I_op of {
        loc : string;
        op : Value.t;
        read : bool;
        k : Value.t -> prim;
        edges : int Vtbl.t;  (* response -> interned next instruction *)
        faults : string Vtbl.t;  (* response -> type-error message *)
      }

  type t = {
    mutable insts : inst array;
    mutable len : int;
    max_nodes : int;
    mutable hits : int;
    mutable misses : int;
    mutable bailed : bool;
  }

  let default_max_nodes = 1 lsl 16
  let read_sym = Value.Sym "read"

  let intern c prim =
    if c.len >= c.max_nodes then begin
      c.bailed <- true;
      -1
    end
    else begin
      (if c.len = Array.length c.insts then begin
         let insts = Array.make (max 8 (2 * c.len)) c.insts.(0) in
         Array.blit c.insts 0 insts 0 c.len;
         c.insts <- insts
       end);
      let inst =
        match prim with
        | Done v -> I_done v
        | Step (loc, op, k) ->
          I_op
            {
              loc;
              op;
              read = Value.equal op read_sym;
              k;
              edges = Vtbl.create 4;
              faults = Vtbl.create 1;
            }
      in
      c.insts.(c.len) <- inst;
      c.len <- c.len + 1;
      c.len - 1
    end

  let compile ?(max_nodes = default_max_nodes) prim =
    let c =
      {
        insts = Array.make 8 (I_done Value.Unit);
        len = 0;
        max_nodes = max 1 max_nodes;
        hits = 0;
        misses = 0;
        bailed = false;
      }
    in
    ignore (intern c prim : int);
    c

  let entry (_ : t) = 0
  let is_done c id = match c.insts.(id) with I_done _ -> true | I_op _ -> false

  let decided_value c id =
    match c.insts.(id) with
    | I_done v -> v
    | I_op _ -> invalid_arg "Program.Compiled.decided_value: op instruction"

  let op_inst c id =
    match c.insts.(id) with
    | I_op _ as i -> i
    | I_done _ -> invalid_arg "Program.Compiled: done instruction"

  let loc_at c id = match op_inst c id with I_op n -> n.loc | I_done _ -> assert false
  let op_value_at c id = match op_inst c id with I_op n -> n.op | I_done _ -> assert false
  let read_at c id = match op_inst c id with I_op n -> n.read | I_done _ -> assert false

  let prim_at c id =
    match c.insts.(id) with
    | I_done v -> Done v
    | I_op { loc; op; k; _ } -> Step (loc, op, k)

  type outcome = O_next of int | O_inline of prim | O_fault of string

  let advance c id result =
    match c.insts.(id) with
    | I_done _ -> invalid_arg "Program.Compiled.advance: done instruction"
    | I_op n -> (
      match Vtbl.find n.edges result with
      | id' ->
        c.hits <- c.hits + 1;
        O_next id'
      | exception Not_found -> (
        match Vtbl.find n.faults result with
        | msg ->
          c.hits <- c.hits + 1;
          O_fault msg
        | exception Not_found -> (
          c.misses <- c.misses + 1;
          match n.k result with
          | exception e ->
            let msg = fault_message e in
            Vtbl.replace n.faults result msg;
            O_fault msg
          | next ->
            let id' = intern c next in
            if id' < 0 then O_inline next
            else begin
              Vtbl.replace n.edges result id';
              O_next id'
            end)))

  type report = { nodes : int; hits : int; misses : int; bailed : bool }
  let report c = { nodes = c.len; hits = c.hits; misses = c.misses; bailed = c.bailed }
end

let run_sequential store ~pid prim =
  let rec go store = function
    | Done v -> Ok (store, v)
    | Step (loc, o, k) -> (
      match Memory.Store.apply store ~pid loc o with
      | Error _ as e -> e
      | Ok (store, res) -> (
        match k res with
        | exception e -> Error (fault_message e)
        | next -> go store next))
  in
  go store prim
