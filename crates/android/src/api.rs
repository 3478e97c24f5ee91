//! The modelled Android API surface.
//!
//! A PScout-style permission map plus SuSi-style source/sink tables, keyed
//! by `(class descriptor, method name)`. Both the static analyzer (AME) and
//! the enforcement runtime (APE) consult these tables, so the two ends of
//! the system agree on what every API means.

use std::collections::HashMap;
use std::sync::OnceLock;

use separ_dex::manifest::ComponentKind;

use crate::types::{perm, Resource};

/// Classification of an API method.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ApiKind {
    /// Produces sensitive data of the given resource kind.
    Source(Resource),
    /// Consumes (exfiltrates) data into the given resource kind.
    Sink(Resource),
    /// An inter-component communication operation.
    Icc(IccMethod),
    /// Reads data out of a received Intent (an ICC source).
    IntentRead,
    /// Configures an Intent object (action, extras, target...).
    IntentConfig(IntentConfigKind),
    /// A dynamic permission check (`checkCallingPermission`).
    PermissionCheck,
    /// Registers a broadcast receiver at runtime.
    DynamicRegister,
    /// Anything else.
    Neutral,
}

/// The ICC entry points the paper's analysis tracks.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum IccMethod {
    /// `Context.startActivity(Intent)`.
    StartActivity,
    /// `Activity.startActivityForResult(Intent, int)` — two-way ICC.
    StartActivityForResult,
    /// `Activity.setResult(int, Intent)` — the passive reply Intent.
    SetResult,
    /// `Context.startService(Intent)`.
    StartService,
    /// `Context.bindService(Intent, conn, flags)` — two-way ICC.
    BindService,
    /// `Context.sendBroadcast(Intent)`.
    SendBroadcast,
    /// `ContentResolver.query(uri, ...)`.
    ProviderQuery,
    /// `ContentResolver.insert(uri, ...)`.
    ProviderInsert,
    /// `ContentResolver.update(uri, ...)`.
    ProviderUpdate,
    /// `ContentResolver.delete(uri, ...)`.
    ProviderDelete,
}

impl IccMethod {
    /// All ICC methods, in declaration order (stable across releases, so
    /// bitmask and serialized encodings can rely on it).
    pub const ALL: [IccMethod; 10] = [
        IccMethod::StartActivity,
        IccMethod::StartActivityForResult,
        IccMethod::SetResult,
        IccMethod::StartService,
        IccMethod::BindService,
        IccMethod::SendBroadcast,
        IccMethod::ProviderQuery,
        IccMethod::ProviderInsert,
        IccMethod::ProviderUpdate,
        IccMethod::ProviderDelete,
    ];

    /// Returns `true` for the two-way ICC methods that produce passive
    /// reply Intents (paper Algorithm 1).
    pub fn requests_result(self) -> bool {
        matches!(
            self,
            IccMethod::StartActivityForResult | IccMethod::BindService
        )
    }

    /// The component kind the method delivers to; `None` for
    /// [`IccMethod::SetResult`], whose reply goes back to the requester
    /// rather than through resolution.
    pub fn receiving_kind(self) -> Option<ComponentKind> {
        match self {
            IccMethod::StartActivity | IccMethod::StartActivityForResult => {
                Some(ComponentKind::Activity)
            }
            IccMethod::StartService | IccMethod::BindService => Some(ComponentKind::Service),
            IccMethod::SendBroadcast => Some(ComponentKind::Receiver),
            IccMethod::ProviderQuery
            | IccMethod::ProviderInsert
            | IccMethod::ProviderUpdate
            | IccMethod::ProviderDelete => Some(ComponentKind::Provider),
            IccMethod::SetResult => None,
        }
    }

    /// The API method name.
    pub fn method_name(self) -> &'static str {
        match self {
            IccMethod::StartActivity => "startActivity",
            IccMethod::StartActivityForResult => "startActivityForResult",
            IccMethod::SetResult => "setResult",
            IccMethod::StartService => "startService",
            IccMethod::BindService => "bindService",
            IccMethod::SendBroadcast => "sendBroadcast",
            IccMethod::ProviderQuery => "query",
            IccMethod::ProviderInsert => "insert",
            IccMethod::ProviderUpdate => "update",
            IccMethod::ProviderDelete => "delete",
        }
    }
}

/// How an `IntentConfig` call shapes the intent.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum IntentConfigKind {
    /// `new Intent()` constructor.
    Init,
    /// `setAction(String)`.
    SetAction,
    /// `addCategory(String)`.
    AddCategory,
    /// `setType(String)` (MIME data type).
    SetType,
    /// `setData(Uri)` / scheme-bearing data.
    SetData,
    /// `putExtra(String, value)`.
    PutExtra,
    /// `setClassName` / `setComponent` / `setClass` — explicit target.
    SetTarget,
}

/// Framework class descriptors.
pub mod class {
    /// `android.content.Intent`.
    pub const INTENT: &str = "Landroid/content/Intent;";
    /// `android.content.Context`.
    pub const CONTEXT: &str = "Landroid/content/Context;";
    /// `android.app.Activity`.
    pub const ACTIVITY: &str = "Landroid/app/Activity;";
    /// `android.app.Service`.
    pub const SERVICE: &str = "Landroid/app/Service;";
    /// `android.content.BroadcastReceiver`.
    pub const RECEIVER: &str = "Landroid/content/BroadcastReceiver;";
    /// `android.content.ContentProvider`.
    pub const PROVIDER: &str = "Landroid/content/ContentProvider;";
    /// `android.content.ContentResolver`.
    pub const RESOLVER: &str = "Landroid/content/ContentResolver;";
    /// `android.location.LocationManager`.
    pub const LOCATION_MANAGER: &str = "Landroid/location/LocationManager;";
    /// `android.telephony.SmsManager`.
    pub const SMS_MANAGER: &str = "Landroid/telephony/SmsManager;";
    /// `android.telephony.TelephonyManager`.
    pub const TELEPHONY_MANAGER: &str = "Landroid/telephony/TelephonyManager;";
    /// `android.util.Log`.
    pub const LOG: &str = "Landroid/util/Log;";
    /// `java.net.HttpURLConnection`.
    pub const HTTP: &str = "Ljava/net/HttpURLConnection;";
    /// `java.io.FileOutputStream` (external storage stand-in).
    pub const FILE_OUT: &str = "Ljava/io/FileOutputStream;";
    /// `java.io.FileInputStream`.
    pub const FILE_IN: &str = "Ljava/io/FileInputStream;";
    /// `android.hardware.Camera`.
    pub const CAMERA: &str = "Landroid/hardware/Camera;";
    /// `android.media.AudioRecord`.
    pub const AUDIO: &str = "Landroid/media/AudioRecord;";
    /// `android.accounts.AccountManager`.
    pub const ACCOUNTS: &str = "Landroid/accounts/AccountManager;";
}

type ApiTable = HashMap<(&'static str, &'static str), (ApiKind, Option<&'static str>)>;

/// The full API table: `(class, method) -> (kind, required permission)`.
fn table() -> &'static ApiTable {
    static TABLE: OnceLock<ApiTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        use ApiKind as K;
        use IntentConfigKind as C;
        let mut t: ApiTable = HashMap::new();
        let mut put = |class: &'static str,
                       method: &'static str,
                       kind: ApiKind,
                       perm: Option<&'static str>| {
            t.insert((class, method), (kind, perm));
        };

        // --- Intent configuration ---
        put(class::INTENT, "<init>", K::IntentConfig(C::Init), None);
        put(
            class::INTENT,
            "setAction",
            K::IntentConfig(C::SetAction),
            None,
        );
        put(
            class::INTENT,
            "addCategory",
            K::IntentConfig(C::AddCategory),
            None,
        );
        put(class::INTENT, "setType", K::IntentConfig(C::SetType), None);
        put(class::INTENT, "setData", K::IntentConfig(C::SetData), None);
        put(
            class::INTENT,
            "setDataAndType",
            K::IntentConfig(C::SetData),
            None,
        );
        put(
            class::INTENT,
            "putExtra",
            K::IntentConfig(C::PutExtra),
            None,
        );
        put(
            class::INTENT,
            "setClassName",
            K::IntentConfig(C::SetTarget),
            None,
        );
        put(
            class::INTENT,
            "setComponent",
            K::IntentConfig(C::SetTarget),
            None,
        );
        put(
            class::INTENT,
            "setClass",
            K::IntentConfig(C::SetTarget),
            None,
        );

        // --- Intent reads (ICC sources) ---
        for m in [
            "getStringExtra",
            "getIntExtra",
            "getExtras",
            "getAction",
            "getData",
        ] {
            put(class::INTENT, m, K::IntentRead, None);
        }
        put(class::ACTIVITY, "getIntent", K::IntentRead, None);

        // --- ICC calls ---
        for (ctx, m, icc) in [
            (class::CONTEXT, "startActivity", IccMethod::StartActivity),
            (class::ACTIVITY, "startActivity", IccMethod::StartActivity),
            (
                class::ACTIVITY,
                "startActivityForResult",
                IccMethod::StartActivityForResult,
            ),
            (class::ACTIVITY, "setResult", IccMethod::SetResult),
            (class::CONTEXT, "startService", IccMethod::StartService),
            (class::SERVICE, "startService", IccMethod::StartService),
            (class::CONTEXT, "bindService", IccMethod::BindService),
            (class::CONTEXT, "sendBroadcast", IccMethod::SendBroadcast),
            (class::RESOLVER, "query", IccMethod::ProviderQuery),
            (class::RESOLVER, "insert", IccMethod::ProviderInsert),
            (class::RESOLVER, "update", IccMethod::ProviderUpdate),
            (class::RESOLVER, "delete", IccMethod::ProviderDelete),
        ] {
            put(ctx, m, K::Icc(icc), None);
        }
        put(class::CONTEXT, "registerReceiver", K::DynamicRegister, None);

        // --- permission check ---
        put(
            class::CONTEXT,
            "checkCallingPermission",
            K::PermissionCheck,
            None,
        );
        put(
            class::ACTIVITY,
            "checkCallingPermission",
            K::PermissionCheck,
            None,
        );
        put(
            class::SERVICE,
            "checkCallingPermission",
            K::PermissionCheck,
            None,
        );

        // --- sources ---
        put(
            class::LOCATION_MANAGER,
            "getLastKnownLocation",
            K::Source(Resource::Location),
            Some(perm::ACCESS_FINE_LOCATION),
        );
        put(
            class::LOCATION_MANAGER,
            "requestLocationUpdates",
            K::Source(Resource::Location),
            Some(perm::ACCESS_FINE_LOCATION),
        );
        put(
            class::TELEPHONY_MANAGER,
            "getDeviceId",
            K::Source(Resource::DeviceId),
            Some(perm::READ_PHONE_STATE),
        );
        put(
            class::TELEPHONY_MANAGER,
            "getLine1Number",
            K::Source(Resource::PhoneState),
            Some(perm::READ_PHONE_STATE),
        );
        put(
            class::RESOLVER,
            "queryContacts",
            K::Source(Resource::Contacts),
            Some(perm::READ_CONTACTS),
        );
        put(
            class::RESOLVER,
            "queryCalendar",
            K::Source(Resource::Calendar),
            Some(perm::READ_CALENDAR),
        );
        put(
            class::RESOLVER,
            "querySmsInbox",
            K::Source(Resource::SmsInbox),
            Some(perm::READ_SMS),
        );
        put(
            class::RESOLVER,
            "queryCallLog",
            K::Source(Resource::CallLog),
            Some(perm::READ_CALL_LOG),
        );
        put(
            class::RESOLVER,
            "queryBrowserHistory",
            K::Source(Resource::BrowserHistory),
            Some(perm::READ_HISTORY_BOOKMARKS),
        );
        put(
            class::FILE_IN,
            "read",
            K::Source(Resource::SdcardRead),
            Some(perm::READ_EXTERNAL_STORAGE),
        );
        put(
            class::HTTP,
            "getInputStream",
            K::Source(Resource::NetworkRead),
            Some(perm::INTERNET),
        );
        put(
            class::CAMERA,
            "takePicture",
            K::Source(Resource::Camera),
            Some(perm::CAMERA),
        );
        put(
            class::AUDIO,
            "read",
            K::Source(Resource::Microphone),
            Some(perm::RECORD_AUDIO),
        );
        put(
            class::ACCOUNTS,
            "getAccounts",
            K::Source(Resource::Accounts),
            Some(perm::GET_ACCOUNTS),
        );

        // --- sinks ---
        put(
            class::SMS_MANAGER,
            "sendTextMessage",
            K::Sink(Resource::Sms),
            Some(perm::SEND_SMS),
        );
        put(
            class::HTTP,
            "getOutputStream",
            K::Sink(Resource::NetworkWrite),
            Some(perm::INTERNET),
        );
        put(
            class::FILE_OUT,
            "write",
            K::Sink(Resource::SdcardWrite),
            Some(perm::WRITE_EXTERNAL_STORAGE),
        );
        for m in ["d", "e", "i", "w", "v"] {
            put(class::LOG, m, K::Sink(Resource::Log), None);
        }
        put(
            class::CONTEXT,
            "placeCall",
            K::Sink(Resource::PhoneCall),
            Some(perm::CALL_PHONE),
        );

        t
    })
}

/// Classifies an API call. Unknown methods are [`ApiKind::Neutral`].
pub fn classify(class: &str, method: &str) -> ApiKind {
    table()
        .get(&(class, method))
        .map_or(ApiKind::Neutral, |&(kind, _)| kind)
}

/// The permission required to invoke an API, per the PScout-style map.
pub fn permission_for(class: &str, method: &str) -> Option<&'static str> {
    table().get(&(class, method)).and_then(|&(_, p)| p)
}

/// Returns every `(class, method)` pair classified as a source.
pub fn all_sources() -> Vec<(&'static str, &'static str, Resource)> {
    table()
        .iter()
        .filter_map(|(&(c, m), &(k, _))| match k {
            ApiKind::Source(r) => Some((c, m, r)),
            _ => None,
        })
        .collect()
}

/// Returns every `(class, method)` pair classified as a sink.
pub fn all_sinks() -> Vec<(&'static str, &'static str, Resource)> {
    table()
        .iter()
        .filter_map(|(&(c, m), &(k, _))| match k {
            ApiKind::Sink(r) => Some((c, m, r)),
            _ => None,
        })
        .collect()
}

/// The superclass descriptor a component of the given kind extends.
pub fn component_super(kind: separ_dex::ComponentKind) -> &'static str {
    match kind {
        separ_dex::ComponentKind::Activity => class::ACTIVITY,
        separ_dex::ComponentKind::Service => class::SERVICE,
        separ_dex::ComponentKind::Receiver => class::RECEIVER,
        separ_dex::ComponentKind::Provider => class::PROVIDER,
    }
}

/// The lifecycle entry-point method names of each component kind.
pub fn entry_points(kind: separ_dex::ComponentKind) -> &'static [&'static str] {
    match kind {
        separ_dex::ComponentKind::Activity => {
            &["onCreate", "onStart", "onResume", "onActivityResult"]
        }
        separ_dex::ComponentKind::Service => &["onStartCommand", "onBind", "onCreate"],
        separ_dex::ComponentKind::Receiver => &["onReceive"],
        separ_dex::ComponentKind::Provider => &["query", "insert", "update", "delete", "onCreate"],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_motivating_example() {
        assert_eq!(
            classify(class::LOCATION_MANAGER, "getLastKnownLocation"),
            ApiKind::Source(Resource::Location)
        );
        assert_eq!(
            classify(class::SMS_MANAGER, "sendTextMessage"),
            ApiKind::Sink(Resource::Sms)
        );
        assert_eq!(
            classify(class::CONTEXT, "startService"),
            ApiKind::Icc(IccMethod::StartService)
        );
        assert_eq!(
            classify(class::INTENT, "getStringExtra"),
            ApiKind::IntentRead
        );
        assert_eq!(
            classify(class::CONTEXT, "checkCallingPermission"),
            ApiKind::PermissionCheck
        );
        assert_eq!(classify("LUnknown;", "whatever"), ApiKind::Neutral);
    }

    #[test]
    fn receiving_kind_covers_every_method() {
        use ComponentKind::{Activity, Provider, Receiver, Service};
        let kinds = IccMethod::ALL.map(IccMethod::receiving_kind);
        assert_eq!(
            kinds,
            [
                Some(Activity),
                Some(Activity),
                None,
                Some(Service),
                Some(Service),
                Some(Receiver),
                Some(Provider),
                Some(Provider),
                Some(Provider),
                Some(Provider),
            ]
        );
    }

    #[test]
    fn permission_map_matches_pscout_style_entries() {
        assert_eq!(
            permission_for(class::SMS_MANAGER, "sendTextMessage"),
            Some(perm::SEND_SMS)
        );
        assert_eq!(
            permission_for(class::LOCATION_MANAGER, "getLastKnownLocation"),
            Some(perm::ACCESS_FINE_LOCATION)
        );
        assert_eq!(permission_for(class::LOG, "d"), None);
        assert_eq!(permission_for(class::INTENT, "setAction"), None);
    }

    #[test]
    fn two_way_icc_methods_request_results() {
        assert!(IccMethod::StartActivityForResult.requests_result());
        assert!(IccMethod::BindService.requests_result());
        assert!(!IccMethod::StartService.requests_result());
        assert!(!IccMethod::SendBroadcast.requests_result());
    }

    #[test]
    fn source_sink_tables_are_populated() {
        let sources = all_sources();
        let sinks = all_sinks();
        assert!(sources.len() >= 13, "thirteen+ source APIs");
        assert!(sinks.len() >= 5, "five+ sink APIs");
        assert!(sources.iter().any(|&(_, _, r)| r == Resource::Location));
        assert!(sinks.iter().any(|&(_, _, r)| r == Resource::Sms));
    }

    #[test]
    fn entry_points_per_kind() {
        use separ_dex::ComponentKind;
        assert!(entry_points(ComponentKind::Service).contains(&"onStartCommand"));
        assert!(entry_points(ComponentKind::Receiver).contains(&"onReceive"));
        assert_eq!(component_super(ComponentKind::Activity), class::ACTIVITY);
    }
}
