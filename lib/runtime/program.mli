(** Protocol programs.

    A process's code is a sequence of atomic shared-memory operations with
    local computation between them.  We represent it as a resumable step
    machine ({!prim}) and provide a continuation monad ({!type-t}) for
    writing protocols in direct style:

    {[
      let open Runtime.Program in
      let* v = op "r" (Objects.Register.read_op) in
      if Memory.Value.as_int v = 0 then decide (Memory.Value.int 1)
      else return ()
    ]}

    The execution engine owns all scheduling: a program only advances when
    the scheduler grants it a step, and each [op] is applied atomically.

    {b Purity requirement.}  Continuations must not capture mutable state:
    the exhaustive explorer ({!Explore}) resumes the same continuation
    along many interleaving branches, so captured refs would leak state
    between alternative schedules.  Thread loop state through recursion
    arguments instead. *)

module Value := Memory.Value

(** A resumable program: either finished with a decision value, or blocked
    on one shared-memory operation with a continuation awaiting the
    response. *)
type prim =
  | Done of Value.t
  | Step of string * Value.t * (Value.t -> prim)
      (** [Step (loc, op, k)] invokes [op] on the object at [loc]. *)

type 'a t
(** Monadic protocol fragment returning an ['a]. *)

val return : 'a -> 'a t
val bind : 'a t -> ('a -> 'b t) -> 'b t
val map : ('a -> 'b) -> 'a t -> 'b t
val ( let* ) : 'a t -> ('a -> 'b t) -> 'b t
val ( let+ ) : 'a t -> ('a -> 'b) -> 'b t

val op : string -> Value.t -> Value.t t
(** [op loc o] performs one atomic operation on the shared object at [loc]
    and returns its response. *)

val decide : Value.t -> 'a t
(** Terminate the whole program immediately with the given decision value,
    discarding the continuation. *)

val list_iter : ('a -> unit t) -> 'a list -> unit t
val list_map : ('a -> 'b t) -> 'a list -> 'b list t
val list_fold : ('acc -> 'a -> 'acc t) -> 'acc -> 'a list -> 'acc t

val repeat_until : (unit -> 'a option t) -> 'a t
(** [repeat_until body] runs [body] repeatedly until it returns [Some x].
    The loop itself consumes no steps; only the [op]s inside [body] do. *)

val complete : Value.t t -> prim
(** Close a program: its result becomes the decision value. *)

val fault_message : exn -> string
(** The [Faulty] status message of a process whose continuation raised
    the given exception — worded the same on every executor.  A
    {!Memory.Value.Type_error} reads ["type error: expected W, got V"];
    any other exception reads ["continuation raised E"] with [E] its
    [Printexc.to_string].  @raise Out_of_memory and [Stack_overflow]
    again: those are the runtime failing, not the program. *)

val run_sequential : Memory.Store.t -> pid:int -> prim ->
  (Memory.Store.t * Value.t, string) result
(** Run a program to completion alone against a store (no concurrency).
    Used by tests and by the replay checker. *)

(** Programs lowered to a flat instruction array.

    The purity requirement above makes [(instruction, response) -> next
    instruction] deterministic, so a {!prim} can be lowered into an array
    of instructions whose op nodes memoize, per decoded response, the id
    of the next instruction (or the fault message a response provokes).
    Lowering is demand-driven: the first traversal of an edge calls the
    stored continuation and interns the result; later traversals are
    table hits that allocate nothing.  A program whose reachable
    instruction set exceeds [max_nodes] stops interning and transparently
    falls back to closure interpretation via {!outcome.O_inline};
    {!report} says which path a process took. *)
module Compiled : sig
  type t

  val default_max_nodes : int
  (** 65536. *)

  val compile : ?max_nodes:int -> prim -> t
  (** Lower a program.  Only the entry instruction is interned eagerly;
      the rest of the graph materializes as {!advance} explores it. *)

  val entry : t -> int
  (** Instruction id of the program's initial state (always [0]). *)

  val is_done : t -> int -> bool

  val decided_value : t -> int -> Value.t
  (** @raise Invalid_argument if the instruction is an op. *)

  val loc_at : t -> int -> string
  (** Location of an op instruction.  @raise Invalid_argument on done. *)

  val op_value_at : t -> int -> Value.t

  val read_at : t -> int -> bool
  (** Whether the op is the literal read operation ([:read]) — the POR
      independence check, precomputed at intern time. *)

  val prim_at : t -> int -> prim
  (** Rebuild the {!prim} view of an instruction (for materializing a
      machine state back into a persistent configuration). *)

  (** Result of feeding a response to an op instruction. *)
  type outcome =
    | O_next of int  (** next interned instruction *)
    | O_inline of prim
        (** instruction cap hit: continue on the closure interpreter *)
    | O_fault of string
        (** the continuation raised; the {!fault_message} *)

  val advance : t -> int -> Value.t -> outcome
  (** [advance c id response] follows (and on first traversal, builds)
      the edge out of op instruction [id] labelled [response].
      @raise Invalid_argument if [id] is a done instruction. *)

  type report = { nodes : int; hits : int; misses : int; bailed : bool }
  (** [nodes] interned instructions; [hits]/[misses] edge-table hits and
      first-traversal continuation calls; [bailed] whether the cap was
      ever hit (some steps ran on the closure fallback). *)

  val report : t -> report
end
