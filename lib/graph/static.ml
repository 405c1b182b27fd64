(* Former name of the compiled substrate, kept only because the frozen
   end-to-end benchmark (perfbench/inputs.ml) still calls
   [Static.to_graph].  Everything else uses {!Compact}. *)
include Compact
