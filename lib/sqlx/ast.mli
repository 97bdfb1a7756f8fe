(** Abstract syntax of the sqlx dialect.

    The language exposes expiration times exactly where the paper allows
    (Section 2): on [INSERT ... EXPIRES t] / [TTL d] and through
    expiration triggers; queries never mention them. *)

open Expirel_core

type column_ref = {
  qualifier : string option;  (** table name, for [t.col] *)
  column : string;
}

type agg_name =
  | Count_star
  | Sum_of of column_ref
  | Min_of of column_ref
  | Max_of of column_ref
  | Avg_of of column_ref

type operand =
  | Col_ref of column_ref
  | Lit of Value.t
  | Agg_ref of agg_name
      (** only meaningful inside HAVING conditions *)

type cmp =
  | Eq
  | Neq
  | Lt
  | Le
  | Gt
  | Ge

type cond =
  | Cmp of cmp * operand * operand
  | And of cond * cond
  | Or of cond * cond
  | Not of cond

type select_item =
  | Star
  | Column of column_ref
  | Agg of agg_name
  | Approx_count of float
      (** [APPROX_COUNT(eps)]: ε-approximate live count served by a
          bounded-memory sketch; answers carry an explicit error bound *)
  | Sample of int
      (** [SAMPLE(k)]: a uniform random sample of [k] live rows served
          by a priority sketch *)

type source =
  | From_table of string
  | From_join of string * string * cond  (** [t JOIN u ON cond] *)

type direction =
  | Asc
  | Desc

type select = {
  items : select_item list;
  source : source;
  where : cond option;
  group_by : column_ref list;
  having : cond option;
      (** filters groups; may reference the select list's aggregate *)
}

type query =
  | Select of select
  | Union of query * query
  | Except of query * query
  | Intersect of query * query

type query_stmt = {
  q : query;
  at : int option;  (** [AT n]: evaluate against the known future state at time [n] *)
  order_by : (column_ref * direction) list;
  limit : int option;
}

type expires_clause =
  | At of int  (** absolute expiration time *)
  | Never
  | Ttl of int  (** relative to the current clock *)

type statement =
  | Create_table of string * string list
  | Drop_table of string
  | Create_index of {
      table : string;
      column : string;
    }
      (** [CREATE INDEX ON t (c)]: builds an ordered secondary index the
          planner's access paths can use; purely physical — results
          never change, only cost *)
  | Drop_index of {
      table : string;
      column : string;
    }
  | Insert of {
      table : string;
      values : Value.t list;
      expires : expires_clause;
    }
  | Delete of string * cond option
  | Advance_to of int
  | Tick of int
  | Vacuum
  | Checkpoint
      (** compact the attached durable store's snapshot (an error when
          the session is purely in-memory) *)
  | Query of query_stmt
  | Create_view of {
      name : string;
      query : query;
      maintained : bool;
          (** maintained views stay synchronised with inserts, deletes
              and clock advances incrementally *)
    }
  | Show_view of string
  | Create_trigger of {
      name : string;
      table : string;  (** ["*"] subscribes to every table *)
    }
  | Drop_trigger of string
  | Show_triggers
  | Create_constraint of {
      name : string;
      query : query;
      min_rows : int option;
      max_rows : int option;
    }
  | Drop_constraint of string
  | Show_constraints
  | Refresh_view of string
  | Show_tables
  | Show_views
  | Show_time
  | Show_horizon of string option
      (** [SHOW HORIZON [FOR t]]: the forward expiration profile —
          bucketed counts of live rows by ticks-to-expiry, for one
          table or all of them *)
  | Explain of query
  | Explain_analyze of query
      (** [EXPLAIN ANALYZE q]: plans {e and runs} [q], reporting the
          physical tree annotated from the run's [op:] trace spans —
          per-operator actual rows, expired-tuple drop counts, index
          visits and wall time next to the planner's estimates *)

val pp_cond : Format.formatter -> cond -> unit
val pp_statement : Format.formatter -> statement -> unit
