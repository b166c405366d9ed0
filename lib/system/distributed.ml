(* The §4.2 distribution axis, re-exported under its historical name
   for callers that predate {!Xy_core.Partition.axis}.  The engine that
   runs either axis on real domains is {!Parallel}. *)
type axis = Xy_core.Partition.axis = Split_documents | Split_subscriptions
