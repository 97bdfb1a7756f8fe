(** The statement cache: an LRU of statement shapes ({!Shape}), each
    entry a parse of its shape and whatever its owner derives from a
    statement of that shape (a node's plan, a coordinator's plan of
    exchanges).  A node's interpreter and a cluster coordinator each
    keep one, so a repeated request — the same text, or the same text
    with other literals — is neither parsed nor, at either end of a
    cluster hop, lowered or planned again.

    Queries, EXPLAIN, INSERT, DELETE, ADVANCE TO and TICK get entries;
    other statements (DDL, SHOW, views, triggers, constraints) parse
    every time, so their one-off texts never evict a repeated shape.
    Safe for concurrent use: the cache serialises its own accesses, and
    an owner's derivations go through {!locked}. *)

open Expirel_core

type 'p t
type 'p entry

type 'p prepared = private {
  text : string;  (** the statement's text, verbatim *)
  statement : Ast.statement;
  entry : 'p entry option;  (** [None]: the statement is not cached *)
  literals : Value.t array;
      (** the literals bound into [statement], in its entry's slots *)
}

val create : ?on_evict:(string -> unit) -> capacity:int -> unit -> 'p t
(** [on_evict] hears the shape key ({!key}) of each entry the LRU
    evicts. *)

val prepare : 'p t -> string -> 'p prepared
(** The statement of a text: bound into its shape's cached parse
    ({!Shape.bind}), or parsed (and cached, when of a kind that gets an
    entry).  A text whose literals do not bind is parsed and left
    uncached.
    @raise Parser.Error as {!Parser.parse_statement} does *)

val plain : Ast.statement -> 'p prepared
(** A statement from elsewhere, uncached: its text is empty. *)

val length : 'p t -> int

val locked : 'p t -> (unit -> 'a) -> 'a
(** Runs under the cache's lock, which guards every entry's payload;
    never hold it across lowering, planning or evaluation. *)

(** What an entry's payload — derived for one binding of its shape —
    is to a request. *)
type 'p reuse =
  | As_is of 'p  (** its planned literals are the request's *)
  | Rebound of 'p * (Value.t -> Value.t)
      (** only condition values differ: each constant that is one of
          the payload's literals maps, by pointer, to the request's
          literal in its slot ({!Shape.Subst}) *)
  | Absent  (** uncached, underived, not [current], or to be replanned *)

val reuse :
  'p t -> 'p prepared -> current:('p -> bool) -> literals:('p -> Value.t array) -> 'p reuse
(** The request's entry's payload, when [current] holds of it;
    [literals] are the ones it was derived for (another request's
    {!field-literals}). *)

val store : 'p t -> 'p prepared -> 'p -> unit
(** Makes the payload, derived for this request's literals, its
    entry's (nothing for an uncached statement). *)

val holds : 'p t -> 'p entry -> ('p -> bool) -> bool
(** The entry is still its shape's, and its payload satisfies the
    test; under {!locked}. *)

val key : 'p entry -> string
